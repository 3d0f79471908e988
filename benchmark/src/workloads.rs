//! The four workloads' inputs, generated from the workload seed. The
//! program under test only ever sees the resulting spec JSON.

use cdcs_bench::exp::{BaseConfig, ExperimentSpec, GridSpec, MixEntry, SpecKind};
use cdcs_bench::specs;
use cdcs_sim::runner::CellRun;
use cdcs_sim::{ConfigPatch, EngineMode, Scheme};
use cdcs_workload::spec::all_single_threaded;
use cdcs_workload::{EventScript, MixSpec};

/// Apps in the `replan` mix: planner cost grows with the VC count.
pub const REPLAN_APPS: usize = 128;
/// `replan` epoch and interval length, in cycles.
pub const REPLAN_EPOCH: u64 = 10_000;
/// `sweep` warm-up and measured epochs, each: half the target's 4 + 4, so
/// a pass takes ~2.5 s and a run holds enough passes for a steady median.
/// Every epoch still runs the same drain and reconfiguration, so the
/// split of host time between engine and planner is the target's.
pub const SWEEP_EPOCHS: usize = 2;
/// The report label of the `sweep` window patch.
const SWEEP_WINDOW_LABEL: &str = "2+2-epochs";
/// Apps per served job.
pub const JOB_APPS: usize = 4;

/// `sweep`: the Fig. 12 factor-analysis grid at target scale — the five
/// Jigsaw+R/CDCS variants plus the S-NUCA baseline and alone cells — over
/// one 64-app and one 4-app mix drawn from `seed`, every cell run for
/// [`SWEEP_EPOCHS`] warm-up and measured epochs.
pub fn sweep(seed: u64) -> ExperimentSpec {
    let mut spec = specs::fig12(1, &[64, 4]);
    spec.name = format!("sweep_{seed}");
    if let SpecKind::Grid(grid) = &mut spec.kind {
        let mut four = balanced(seed, 1);
        four.truncate(4);
        grid.mixes = vec![
            MixEntry::auto(MixSpec::Named(balanced(seed, 4))),
            MixEntry::auto(MixSpec::Named(four)),
        ];
        grid.seeds = vec![seed];
        grid.patches = vec![ConfigPatch::named(SWEEP_WINDOW_LABEL)
            .with_warmup_epochs(SWEEP_EPOCHS)
            .with_measure_epochs(SWEEP_EPOCHS)];
    }
    spec
}

/// `copies` of every single-threaded suite app in a seeded order. A
/// balanced mix holds the same apps for every seed, so the host cost of a
/// run does not swing with which apps a seed happens to draw; the seed
/// still decides which app runs as which process (and so every stream).
pub fn balanced(seed: u64, copies: usize) -> Vec<String> {
    let mut names: Vec<String> = all_single_threaded()
        .iter()
        .flat_map(|app| std::iter::repeat_n(app.name.clone(), copies))
        .collect();
    let mut state = seed;
    for i in (1..names.len()).rev() {
        state = splitmix(state);
        names.swap(i, (state % (i as u64 + 1)) as usize);
    }
    names
}

/// `replan`: CDCS alone on the 256-tile mega-mesh with a balanced 128-app mix,
/// 10k-cycle epochs under the event engine with a seeded event script,
/// flat and hierarchical (region side 4) planning, bank-sharded cells.
pub fn replan(seed: u64) -> ExperimentSpec {
    let base = BaseConfig::Mega256.config();
    let horizon = (base.warmup_epochs + base.measure_epochs) as u64 * REPLAN_EPOCH;
    let script = EventScript::generate(seed, horizon, REPLAN_APPS);
    let patch = |label: &str| {
        ConfigPatch::named(label)
            .with_engine(EngineMode::Event)
            .with_events(script.clone())
            .with_epoch_cycles(REPLAN_EPOCH)
            .with_interval_cycles(REPLAN_EPOCH)
    };
    let grid = GridSpec {
        base: BaseConfig::Mega256,
        schemes: vec![Scheme::cdcs()],
        mixes: vec![MixEntry::auto(MixSpec::Named(balanced(
            seed,
            REPLAN_APPS / all_single_threaded().len(),
        )))],
        seeds: Vec::new(),
        patches: vec![
            patch("flat"),
            patch("hier-r4")
                .with_hier_region_side(4)
                .with_hier_change_threshold(0.02),
        ],
        run: CellRun::Steady,
        // Alone and baseline cells would replay the 128-process script on
        // one-process rosters; the workload reports raw results instead.
        weighted_speedup: false,
        auto_intra_cell: true,
    };
    ExperimentSpec::grid(format!("replan_{seed}"), grid)
}

/// Served job `index` of the stream for `seed`: one CDCS cell on the 4×4
/// test chip. Every index gives a distinct `(mix, seed)` pair, so the
/// stream never repeats a job.
pub fn job(seed: u64, index: u64) -> ExperimentSpec {
    let key = splitmix(seed.wrapping_mul(0x100_0000_01b3) ^ index);
    let grid = GridSpec {
        base: BaseConfig::SmallTest,
        schemes: vec![Scheme::cdcs()],
        mixes: vec![MixEntry::auto(MixSpec::RandomSingleThreaded {
            count: JOB_APPS,
            mix_seed: key,
        })],
        seeds: vec![splitmix(key)],
        patches: Vec::new(),
        run: CellRun::Steady,
        weighted_speedup: false,
        auto_intra_cell: false,
    };
    ExperimentSpec::grid(format!("job_{seed}_{index}"), grid)
}

/// The mixes of a grid spec (empty for analysis specs).
pub fn mixes(spec: &ExperimentSpec) -> Vec<MixSpec> {
    match &spec.kind {
        SpecKind::Grid(grid) => grid.mixes.iter().map(|m| m.spec.clone()).collect(),
        _ => Vec::new(),
    }
}

/// SplitMix64 finalizer: a bijection on `u64`.
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        assert_eq!(sweep(3), sweep(3));
        assert_ne!(sweep(3), sweep(4));
        assert_eq!(replan(3), replan(3));
        assert_eq!(job(3, 9), job(3, 9));
    }

    #[test]
    fn balanced_mixes_hold_every_app_equally_often() {
        let a = balanced(1, 4);
        let b = balanced(2, 4);
        assert_eq!(a.len(), 64);
        assert_ne!(a, b);
        let (mut sa, mut sb) = (a.clone(), b.clone());
        sa.sort();
        sb.sort();
        assert_eq!(sa, sb);
        assert_eq!(balanced(1, 4), a);
    }

    #[test]
    fn the_job_stream_never_repeats() {
        let keys: HashSet<String> = (0..5_000)
            .map(|i| serde_json::to_string(&mixes(&job(7, i))).unwrap())
            .collect();
        assert_eq!(keys.len(), 5_000);
    }

    #[test]
    fn specs_survive_their_json_round_trip() {
        for spec in [sweep(1), replan(1), job(1, 0)] {
            let json = serde_json::to_string(&spec).unwrap();
            let back: ExperimentSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(back, spec);
        }
    }
}
