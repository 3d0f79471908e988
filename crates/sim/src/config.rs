//! Simulator configuration (the paper's Table 2, with time scaling).

use crate::scheme::{MoveScheme, Scheme};
use cdcs_mesh::{Mesh, NocConfig, Topology};
use cdcs_workload::EventScript;
use serde::{Deserialize, Serialize};

/// Which miss-curve monitor the partitioned schemes use (§VI-C compares
/// GMONs against UMONs of various resolutions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MonitorKind {
    /// Geometric monitors (the paper's design, §IV-G).
    Gmon {
        /// Tag-array ways (64 in the paper).
        ways: usize,
    },
    /// Conventional utility monitors with uniform capacity per way.
    Umon {
        /// Tag-array ways; 64 is the paper's "too coarse" point, 256+
        /// matches GMON performance, 512 covers 64 KB granularity.
        ways: usize,
    },
}

impl Default for MonitorKind {
    /// The paper's 64-way GMON (§IV-G) — the same monitor
    /// [`SimConfig::default`] picks, so a config deserialized from a
    /// document missing `monitor_kind` (the golden-coupling
    /// `#[serde(default)]` rule) matches the built-in default.
    fn default() -> Self {
        MonitorKind::Gmon { ways: 64 }
    }
}

/// The value of the inert [`ConfigPatch::engine`] wire field.
///
/// The simulator has one run loop, which always consumes
/// [`SimConfig::events`] (an empty script is the steady-state run), so
/// neither value changes a result. The enum stays so committed specs and
/// reports that carry the key keep parsing and serializing byte-exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum EngineMode {
    /// Accepted on the wire; changes nothing.
    #[default]
    Batched,
    /// Accepted on the wire; changes nothing.
    Event,
}

/// Full simulator configuration.
///
/// Defaults model the paper's 64-core CMP (Table 2): 8×8 mesh, 512 KB
/// 16-way banks (one per tile), 8 edge memory controllers at 12.8 GB/s and
/// 120-cycle zero-load latency, 3/1-cycle NoC. Times are scaled: the paper
/// reconfigures every 50 Mcycles over ≥1 Gcycle runs; our synthetic
/// workloads are stationary, so shorter epochs measure the same steady
/// state (see `DESIGN.md` §1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Chip fabric (8×8 for the paper's target, 6×6 for the case study).
    #[serde(default)]
    pub mesh: Mesh,
    /// LLC bank capacity in lines (512 KB = 8192 lines).
    #[serde(default)]
    pub bank_lines: u64,
    /// NoC timing.
    #[serde(default)]
    pub noc: NocConfig,
    /// LLC bank access latency, cycles (Table 2: 9).
    #[serde(default)]
    pub bank_latency: u32,
    /// L2 hit latency, cycles (Table 2: 6) — folded into the base IPC of the
    /// core model; kept for documentation/energy accounting.
    #[serde(default)]
    pub l2_latency: u32,
    /// Number of memory controllers (Table 2: 8).
    #[serde(default)]
    pub mem_controllers: usize,
    /// Zero-load memory latency, cycles (Table 2: 120), excluding NoC.
    #[serde(default)]
    pub mem_zero_load: f64,
    /// Peak bandwidth per controller, in cache lines per cycle (12.8 GB/s at
    /// 2 GHz and 64 B lines = 0.1 lines/cycle).
    #[serde(default)]
    pub mem_lines_per_cycle_per_ctrl: f64,
    /// The NUCA scheme under test.
    #[serde(default)]
    pub scheme: Scheme,
    /// Line-movement machinery used at reconfigurations (§IV-H).
    #[serde(default)]
    pub move_scheme: MoveScheme,
    /// Reconfiguration period, cycles (scaled stand-in for the paper's
    /// 25 ms / 50 Mcycles).
    #[serde(default)]
    pub epoch_cycles: u64,
    /// Interval length for the IPC feedback loop, cycles.
    #[serde(default)]
    pub interval_cycles: u64,
    /// Warm-up epochs excluded from measurement.
    #[serde(default)]
    pub warmup_epochs: usize,
    /// Measured epochs.
    #[serde(default)]
    pub measure_epochs: usize,
    /// Capacity-allocation granularity in lines (64 KB = 1024; the
    /// bank-granularity ablation of §VI-C uses larger values).
    #[serde(default)]
    pub alloc_granularity: u64,
    /// Cores paused for this many cycles on a bulk-invalidation
    /// reconfiguration (the paper measures 114 Kcycles on average).
    #[serde(default)]
    pub bulk_pause_cycles: u64,
    /// Cycles after a reconfiguration before background invalidations start
    /// (§IV-H: 50 Kcycles).
    #[serde(default)]
    pub background_delay_cycles: u64,
    /// Cycles for the background walk to complete once started (§IV-H:
    /// ~100 Kcycles).
    #[serde(default)]
    pub background_walk_cycles: u64,
    /// GMON address-sampling period. The paper samples every 64th access
    /// over 50 Mcycle epochs; our epochs are ~50x shorter, so the default
    /// period is denser to give the monitors equivalent sample counts.
    #[serde(default)]
    pub monitor_sample_period: u32,
    /// GMON tag-array sets. The paper's 1024-tag GMON has 16 sets; the
    /// scaled-down epochs need a larger array (64 sets = 4096 tags) for the
    /// same curve fidelity per epoch.
    #[serde(default)]
    pub monitor_sets: usize,
    /// Cost-benefit gate for applying a new placement: the predicted
    /// total-latency gain (Eq. 1 + Eq. 2, per epoch) must exceed
    /// `reconfig_benefit_factor x relocated_lines x mem_latency` (the
    /// one-shot refill cost of the lines the reconfiguration displaces).
    /// The gain recurs every epoch while the refill cost is paid once, so
    /// the factor folds an amortization horizon in: 0.05 means a ~25% refill
    /// cost amortized over ~5 epochs. At the paper's 50 Mcycle epochs
    /// movement costs are negligible and every placement applies; at our
    /// compressed epochs they are ~50x larger relative, so noise-driven
    /// rearrangements must pay for themselves (see `DESIGN.md` §6).
    /// 0.0 applies every placement like the paper.
    #[serde(default)]
    pub reconfig_benefit_factor: f64,
    /// Monitor type for partitioned schemes.
    #[serde(default)]
    pub monitor_kind: MonitorKind,
    /// Base RNG seed for the run.
    #[serde(default)]
    pub seed: u64,
    /// Run the one-access-at-a-time reference engine instead of the
    /// bank-sharded, table-driven drain. Results are bit-identical either
    /// way (the engine-equivalence golden test holds the two paths against
    /// each other); the reference path exists for that test and as the
    /// definitional spec of the access path. Takes precedence over
    /// `intra_cell_threads`.
    #[serde(default)]
    pub reference_engine: bool,
    /// Worker threads for the bank-sharded interval drain. `0` (default)
    /// and `1` both drain in the calling thread. Results are bit-identical
    /// for every value — the drain partitions work by home LLC bank and
    /// reduces in a fixed index order — so this knob trades wall clock
    /// only; values above the physical core count just oversubscribe.
    /// Nested inside [`crate::runner::run_grid`], the outer pool clamps it
    /// so `outer × inner` stays within the machine.
    #[serde(default)]
    pub intra_cell_threads: usize,
    /// Region side (in tiles) for hierarchical CDCS planning; `0` (default)
    /// keeps the flat chip-wide planner. When non-zero, CDCS epochs plan
    /// through the region-decomposed planner — required for mega-meshes
    /// (256+ tiles), where the flat planner's quadratic cost and scratch
    /// become prohibitive. Only `Scheme::Cdcs` routes through the
    /// hierarchy; the Jigsaw variants always plan flat.
    #[serde(default)]
    pub hier_region_side: u16,
    /// Relative per-VC demand-signature delta below which an epoch may
    /// *warm-start*: VCs whose miss curves and access rates changed by at
    /// most this fraction keep their previous placement verbatim, and only
    /// the changed VCs are re-sized and re-placed. `0.0` (default) replans
    /// every epoch from scratch. Only meaningful with
    /// `hier_region_side > 0`.
    #[serde(default)]
    pub hier_change_threshold: f64,
    /// Dynamic workload script, consumed by [`crate::Simulation::run`] at
    /// interval granularity. An empty script (the default) leaves the run
    /// steady-state.
    #[serde(default)]
    pub events: EventScript,
    /// Directory to record per-thread access traces into (record mode
    /// writes a `cdcs_workload::trace` index + binary logs at the end of
    /// the run). Empty (default) disables recording.
    #[serde(default)]
    pub trace_record: String,
    /// Path to a recorded trace index (`index.json`) to replay instead of
    /// the synthetic generators; the trace's mix overrides the cell's.
    /// Empty (default) disables replay.
    #[serde(default)]
    pub trace_replay: String,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            mesh: Mesh::new(8, 8),
            bank_lines: 8192,
            noc: NocConfig::default(),
            bank_latency: 9,
            l2_latency: 6,
            mem_controllers: 8,
            mem_zero_load: 120.0,
            mem_lines_per_cycle_per_ctrl: 0.1,
            scheme: Scheme::SNuca,
            move_scheme: MoveScheme::DemandMove,
            epoch_cycles: 1_000_000,
            interval_cycles: 50_000,
            warmup_epochs: 4,
            measure_epochs: 4,
            alloc_granularity: 1024,
            bulk_pause_cycles: 100_000,
            background_delay_cycles: 50_000,
            background_walk_cycles: 100_000,
            monitor_sample_period: 4,
            monitor_sets: 256,
            reconfig_benefit_factor: 0.05,
            monitor_kind: MonitorKind::Gmon { ways: 64 },
            seed: 1,
            reference_engine: false,
            intra_cell_threads: 0,
            hier_region_side: 0,
            hier_change_threshold: 0.0,
            events: EventScript::steady(),
            trace_record: String::new(),
            trace_replay: String::new(),
        }
    }
}

impl SimConfig {
    /// The §II-B case-study chip: a 6×6 mesh scaled down from the target
    /// system.
    pub fn case_study() -> Self {
        SimConfig {
            mesh: Mesh::new(6, 6),
            warmup_epochs: 8,
            measure_epochs: 4,
            ..Self::default()
        }
    }

    /// A small, fast configuration for tests and doctests: 4×4 chip, short
    /// epochs.
    ///
    /// `CDCS_INTRA_CELL_THREADS=<n>` sets the drain's worker count for
    /// every test built from this config — results are bit-identical for
    /// every count, so CI runs the whole suite once more with 2 workers to
    /// prove exactly that.
    pub fn small_test() -> Self {
        SimConfig {
            mesh: Mesh::new(4, 4),
            epoch_cycles: 500_000,
            interval_cycles: 25_000,
            warmup_epochs: 2,
            measure_epochs: 3,
            bulk_pause_cycles: 20_000,
            background_delay_cycles: 10_000,
            background_walk_cycles: 20_000,
            monitor_sample_period: 4,
            intra_cell_threads: std::env::var("CDCS_INTRA_CELL_THREADS")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(0),
            ..Self::default()
        }
    }

    /// A mega-mesh chip: `side × side` tiles (256 at 16, 1024 at 32) with
    /// the small-test time scaling, so the scenario stays runnable in CI.
    /// The hierarchy knobs default off — experiments opt in per patch
    /// (`with_hier_region_side` / `with_hier_change_threshold`), which keeps
    /// the flat-vs-hierarchical comparison inside one spec.
    pub fn mega_mesh(side: u16) -> Self {
        SimConfig {
            mesh: Mesh::square(side),
            epoch_cycles: 500_000,
            interval_cycles: 25_000,
            warmup_epochs: 2,
            measure_epochs: 3,
            bulk_pause_cycles: 20_000,
            background_delay_cycles: 10_000,
            background_walk_cycles: 20_000,
            ..Self::default()
        }
    }

    /// A sensible `intra_cell_threads` for a binary running one big cell
    /// at a time: every available core, capped at 8 (shard fan-outs flatten
    /// past the bank count over a handful of workers). Results are
    /// bit-identical for every worker count.
    pub fn auto_intra_cell_threads() -> usize {
        std::thread::available_parallelism().map_or(1, |n| n.get().min(8))
    }

    /// Number of LLC banks (one per tile).
    pub fn num_banks(&self) -> usize {
        self.mesh.num_tiles()
    }

    /// Total LLC capacity in lines.
    pub fn total_lines(&self) -> u64 {
        self.bank_lines * self.num_banks() as u64
    }

    /// Total memory bandwidth in lines per cycle.
    pub fn total_mem_bandwidth(&self) -> f64 {
        self.mem_lines_per_cycle_per_ctrl * self.mem_controllers as f64
    }

    /// Validates parameter sanity.
    ///
    /// # Errors
    ///
    /// Returns a message for non-positive or inconsistent parameters.
    pub fn validate(&self) -> Result<(), String> {
        if self.bank_lines == 0 {
            return Err("bank capacity must be non-zero".into());
        }
        if self.epoch_cycles == 0 || self.interval_cycles == 0 {
            return Err("epoch and interval must be non-zero".into());
        }
        if self.interval_cycles > self.epoch_cycles {
            return Err("interval longer than epoch".into());
        }
        if self.measure_epochs == 0 {
            return Err("need at least one measured epoch".into());
        }
        if self.mem_controllers == 0 {
            return Err("need at least one memory controller".into());
        }
        let positive = |x: f64| x > 0.0 && !x.is_nan();
        if !positive(self.mem_zero_load) || !positive(self.mem_lines_per_cycle_per_ctrl) {
            return Err("memory parameters must be positive".into());
        }
        if self.alloc_granularity == 0 {
            return Err("allocation granularity must be non-zero".into());
        }
        if self.alloc_granularity > self.bank_lines {
            return Err(format!(
                "allocation granularity ({} lines) exceeds bank capacity ({} lines)",
                self.alloc_granularity, self.bank_lines
            ));
        }
        if self.monitor_sample_period == 0 {
            return Err("monitor sample period must be non-zero".into());
        }
        if self.monitor_sets == 0 {
            return Err("monitors need at least one tag set".into());
        }
        let monitor_ways = match self.monitor_kind {
            MonitorKind::Gmon { ways } | MonitorKind::Umon { ways } => ways,
        };
        if monitor_ways == 0 {
            return Err("monitors need at least one tag way".into());
        }
        if self.hier_change_threshold.is_nan() || self.hier_change_threshold < 0.0 {
            return Err("hierarchical change threshold must be a non-negative number".into());
        }
        if self.hier_change_threshold > 0.0 && self.hier_region_side == 0 {
            return Err(
                "hier_change_threshold requires hier_region_side > 0 (warm starts are a \
                 feature of the hierarchical planner)"
                    .into(),
            );
        }
        if !self.trace_record.is_empty() && !self.trace_replay.is_empty() {
            return Err("trace_record and trace_replay are mutually exclusive".into());
        }
        if !self.trace_replay.is_empty() && !self.events.is_empty() {
            return Err(
                "trace replay re-issues a recorded steady-state run; it cannot be combined \
                 with a workload event script"
                    .into(),
            );
        }
        // Process indices are checked against the full roster at simulation
        // construction; scales are checkable here.
        self.events.validate(usize::MAX)?;
        if self.scheme.reconfigures() && self.warmup_epochs == 0 {
            // Partitioned schemes bootstrap from a placement computed with
            // no monitor history; with zero warm-up the measured window
            // starts before the first informed reconfiguration, so the
            // numbers would measure the bootstrap transient, not the scheme.
            return Err("reconfiguring schemes need at least one warm-up epoch".into());
        }
        Ok(())
    }
}

/// A declarative, serializable set of overrides on a base [`SimConfig`] —
/// the experiment API's replacement for the clone-and-mutate idiom the
/// figure binaries used to hand-roll.
///
/// Every field is optional; `None` leaves the base value untouched. The
/// `label` names the patch in reports and artifact files (an empty label
/// displays as `"base"`).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ConfigPatch {
    /// Report label (e.g. `"UMON-256w"`, `"period-2M"`).
    #[serde(default)]
    pub label: String,
    /// Overrides [`SimConfig::alloc_granularity`].
    #[serde(default)]
    pub alloc_granularity: Option<u64>,
    /// Overrides [`SimConfig::monitor_kind`].
    #[serde(default)]
    pub monitor_kind: Option<MonitorKind>,
    /// Overrides [`SimConfig::move_scheme`].
    #[serde(default)]
    pub move_scheme: Option<MoveScheme>,
    /// Overrides [`SimConfig::epoch_cycles`].
    #[serde(default)]
    pub epoch_cycles: Option<u64>,
    /// Overrides [`SimConfig::interval_cycles`].
    #[serde(default)]
    pub interval_cycles: Option<u64>,
    /// Overrides [`SimConfig::warmup_epochs`].
    #[serde(default)]
    pub warmup_epochs: Option<usize>,
    /// Overrides [`SimConfig::measure_epochs`].
    #[serde(default)]
    pub measure_epochs: Option<usize>,
    /// Overrides [`SimConfig::monitor_sample_period`].
    #[serde(default)]
    pub monitor_sample_period: Option<u32>,
    /// Overrides [`SimConfig::monitor_sets`].
    #[serde(default)]
    pub monitor_sets: Option<usize>,
    /// Overrides [`SimConfig::reconfig_benefit_factor`].
    #[serde(default)]
    pub reconfig_benefit_factor: Option<f64>,
    /// Overrides [`SimConfig::intra_cell_threads`].
    #[serde(default)]
    pub intra_cell_threads: Option<usize>,
    /// Overrides [`SimConfig::hier_region_side`].
    #[serde(default)]
    pub hier_region_side: Option<u16>,
    /// Overrides [`SimConfig::hier_change_threshold`].
    #[serde(default)]
    pub hier_change_threshold: Option<f64>,
    /// Inert: read and written for wire compatibility, never applied (see
    /// [`EngineMode`]). Committed specs and reports carry the key, so
    /// dropping it would change their bytes.
    #[serde(default)]
    pub engine: Option<EngineMode>,
    /// Overrides [`SimConfig::events`].
    #[serde(default)]
    pub events: Option<EventScript>,
    /// Overrides [`SimConfig::trace_record`].
    #[serde(default)]
    pub trace_record: Option<String>,
    /// Overrides [`SimConfig::trace_replay`].
    #[serde(default)]
    pub trace_replay: Option<String>,
}

impl ConfigPatch {
    /// An empty patch carrying only a report label.
    pub fn named(label: impl Into<String>) -> Self {
        ConfigPatch {
            label: label.into(),
            ..Self::default()
        }
    }

    /// The label shown in reports (`"base"` for unnamed patches).
    pub fn display_label(&self) -> &str {
        if self.label.is_empty() {
            "base"
        } else {
            &self.label
        }
    }

    /// Returns whether the patch overrides nothing (label aside).
    pub fn is_identity(&self) -> bool {
        *self
            == ConfigPatch {
                label: self.label.clone(),
                ..Self::default()
            }
    }

    /// Applies every override onto `config`.
    pub fn apply(&self, config: &mut SimConfig) {
        if let Some(v) = self.alloc_granularity {
            config.alloc_granularity = v;
        }
        if let Some(v) = self.monitor_kind {
            config.monitor_kind = v;
        }
        if let Some(v) = self.move_scheme {
            config.move_scheme = v;
        }
        if let Some(v) = self.epoch_cycles {
            config.epoch_cycles = v;
        }
        if let Some(v) = self.interval_cycles {
            config.interval_cycles = v;
        }
        if let Some(v) = self.warmup_epochs {
            config.warmup_epochs = v;
        }
        if let Some(v) = self.measure_epochs {
            config.measure_epochs = v;
        }
        if let Some(v) = self.monitor_sample_period {
            config.monitor_sample_period = v;
        }
        if let Some(v) = self.monitor_sets {
            config.monitor_sets = v;
        }
        if let Some(v) = self.reconfig_benefit_factor {
            config.reconfig_benefit_factor = v;
        }
        if let Some(v) = self.intra_cell_threads {
            config.intra_cell_threads = v;
        }
        if let Some(v) = self.hier_region_side {
            config.hier_region_side = v;
        }
        if let Some(v) = self.hier_change_threshold {
            config.hier_change_threshold = v;
        }
        if let Some(v) = &self.events {
            config.events = v.clone();
        }
        if let Some(v) = &self.trace_record {
            config.trace_record = v.clone();
        }
        if let Some(v) = &self.trace_replay {
            config.trace_replay = v.clone();
        }
    }

    /// Fluent setter for [`SimConfig::alloc_granularity`].
    #[must_use]
    pub fn with_alloc_granularity(mut self, lines: u64) -> Self {
        self.alloc_granularity = Some(lines);
        self
    }

    /// Fluent setter for [`SimConfig::monitor_kind`].
    #[must_use]
    pub fn with_monitor_kind(mut self, kind: MonitorKind) -> Self {
        self.monitor_kind = Some(kind);
        self
    }

    /// Fluent setter for [`SimConfig::move_scheme`].
    #[must_use]
    pub fn with_move_scheme(mut self, mv: MoveScheme) -> Self {
        self.move_scheme = Some(mv);
        self
    }

    /// Fluent setter for [`SimConfig::epoch_cycles`].
    #[must_use]
    pub fn with_epoch_cycles(mut self, cycles: u64) -> Self {
        self.epoch_cycles = Some(cycles);
        self
    }

    /// Fluent setter for [`SimConfig::interval_cycles`].
    #[must_use]
    pub fn with_interval_cycles(mut self, cycles: u64) -> Self {
        self.interval_cycles = Some(cycles);
        self
    }

    /// Fluent setter for [`SimConfig::reconfig_benefit_factor`].
    #[must_use]
    pub fn with_reconfig_benefit_factor(mut self, factor: f64) -> Self {
        self.reconfig_benefit_factor = Some(factor);
        self
    }

    /// Fluent setter for [`SimConfig::intra_cell_threads`].
    #[must_use]
    pub fn with_intra_cell_threads(mut self, workers: usize) -> Self {
        self.intra_cell_threads = Some(workers);
        self
    }

    /// Fluent setter for [`SimConfig::hier_region_side`].
    #[must_use]
    pub fn with_hier_region_side(mut self, side: u16) -> Self {
        self.hier_region_side = Some(side);
        self
    }

    /// Fluent setter for [`SimConfig::hier_change_threshold`].
    #[must_use]
    pub fn with_hier_change_threshold(mut self, threshold: f64) -> Self {
        self.hier_change_threshold = Some(threshold);
        self
    }

    /// Fluent setter for [`SimConfig::warmup_epochs`].
    #[must_use]
    pub fn with_warmup_epochs(mut self, epochs: usize) -> Self {
        self.warmup_epochs = Some(epochs);
        self
    }

    /// Fluent setter for [`SimConfig::measure_epochs`].
    #[must_use]
    pub fn with_measure_epochs(mut self, epochs: usize) -> Self {
        self.measure_epochs = Some(epochs);
        self
    }

    /// Fluent setter for the inert [`Self::engine`] wire field.
    #[must_use]
    pub fn with_engine(mut self, engine: EngineMode) -> Self {
        self.engine = Some(engine);
        self
    }

    /// Fluent setter for [`SimConfig::events`].
    #[must_use]
    pub fn with_events(mut self, events: EventScript) -> Self {
        self.events = Some(events);
        self
    }

    /// Fluent setter for [`SimConfig::trace_record`].
    #[must_use]
    pub fn with_trace_record(mut self, dir: impl Into<String>) -> Self {
        self.trace_record = Some(dir.into());
        self
    }

    /// Fluent setter for [`SimConfig::trace_replay`].
    #[must_use]
    pub fn with_trace_replay(mut self, index: impl Into<String>) -> Self {
        self.trace_replay = Some(index.into());
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table2() {
        let c = SimConfig::default();
        assert_eq!(c.num_banks(), 64);
        assert_eq!(c.total_lines(), 64 * 8192); // 32 MB in lines
        assert_eq!(c.bank_latency, 9);
        assert_eq!(c.mem_controllers, 8);
        assert!((c.total_mem_bandwidth() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn validate_accepts_defaults() {
        assert!(SimConfig::default().validate().is_ok());
        assert!(SimConfig::small_test().validate().is_ok());
        assert!(SimConfig::case_study().validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_configs() {
        let c = SimConfig {
            bank_lines: 0,
            ..SimConfig::default()
        };
        assert!(c.validate().is_err());
        let base = SimConfig::default();
        let c = SimConfig {
            interval_cycles: base.epoch_cycles + 1,
            ..base
        };
        assert!(c.validate().is_err());
        let c = SimConfig {
            measure_epochs: 0,
            ..SimConfig::default()
        };
        assert!(c.validate().is_err());
        let c = SimConfig {
            alloc_granularity: 0,
            ..SimConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_degenerate_monitors() {
        let c = SimConfig {
            monitor_sets: 0,
            ..SimConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("tag set"));
        let c = SimConfig {
            monitor_kind: MonitorKind::Gmon { ways: 0 },
            ..SimConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("tag way"));
        let c = SimConfig {
            monitor_kind: MonitorKind::Umon { ways: 0 },
            ..SimConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("tag way"));
        let c = SimConfig {
            monitor_sample_period: 0,
            ..SimConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn hier_knobs_default_off_and_tolerate_old_json() {
        let c = SimConfig::default();
        assert_eq!(c.hier_region_side, 0);
        assert_eq!(c.hier_change_threshold, 0.0);
        // Configs serialized before the hierarchy existed (no hier_* keys)
        // must still deserialize, with the knobs off. The fields are the
        // struct's last, so stripping them from the JSON tail reconstructs a
        // pre-hierarchy artifact exactly.
        let json = serde_json::to_string(&c).unwrap();
        let legacy = json.replace(",\"hier_region_side\":0,\"hier_change_threshold\":0.0", "");
        assert_ne!(legacy, json, "expected to strip the hier keys");
        let back: SimConfig = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn dynamic_knobs_default_off_and_tolerate_old_json() {
        let c = SimConfig::default();
        assert!(c.events.is_empty());
        assert!(c.trace_record.is_empty() && c.trace_replay.is_empty());
        // Configs serialized before the event script existed (no dynamic
        // keys) must still deserialize with the knobs off. The fields are
        // the struct's last, so stripping them from the JSON tail
        // reconstructs a pre-event-script artifact exactly.
        let json = serde_json::to_string(&c).unwrap();
        let tail = ",\"events\":{\"events\":[]},\"trace_record\":\"\",\"trace_replay\":\"\"";
        let legacy = json.replace(tail, "");
        assert_ne!(legacy, json, "expected to strip the dynamic keys");
        let back: SimConfig = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back, c);
        // Configs written while `SimConfig` still had an `engine` field
        // keep parsing: the reader skips the removed key.
        for engine in ["Batched", "Event"] {
            let old = json.replace(tail, &format!(",\"engine\":\"{engine}\"{tail}"));
            let back: SimConfig = serde_json::from_str(&old).unwrap();
            assert_eq!(back, c, "engine = {engine}");
        }
    }

    #[test]
    fn validate_checks_dynamic_knobs() {
        use cdcs_workload::{TimedEvent, WorkloadEvent};
        let script = EventScript {
            events: vec![TimedEvent {
                at_cycle: 1000,
                event: WorkloadEvent::Departure { process: 0 },
            }],
        };
        let c = SimConfig {
            events: script.clone(),
            ..SimConfig::default()
        };
        assert!(c.validate().is_ok());
        let c = SimConfig {
            trace_record: "out/t".into(),
            trace_replay: "out/t/index.json".into(),
            ..SimConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("mutually exclusive"));
        // Replay re-issues a recorded steady-state run; a script on top of
        // it is a misconfiguration, not a silent no-op.
        let c = SimConfig {
            events: script,
            trace_replay: "out/t/index.json".into(),
            ..SimConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("event script"));
        let c = SimConfig {
            trace_replay: "out/t/index.json".into(),
            ..SimConfig::default()
        };
        assert!(c.validate().is_ok());
        let c = SimConfig {
            trace_record: "out/t".into(),
            ..SimConfig::default()
        };
        assert!(c.validate().is_ok());
    }

    #[test]
    fn patch_applies_dynamic_overrides() {
        let patch = ConfigPatch::named("dynamic")
            .with_engine(EngineMode::Event)
            .with_warmup_epochs(1)
            .with_measure_epochs(2)
            .with_events(EventScript::generate(3, 100_000, 2))
            .with_trace_record("out/rec");
        assert!(!patch.is_identity());
        let mut c = SimConfig::default();
        patch.apply(&mut c);
        assert_eq!(c.warmup_epochs, 1);
        assert_eq!(c.measure_epochs, 2);
        assert_eq!(c.events, EventScript::generate(3, 100_000, 2));
        assert_eq!(c.trace_record, "out/rec");
        let replay = ConfigPatch::named("replay").with_trace_replay("specs/t/index.json");
        let mut c = SimConfig::default();
        replay.apply(&mut c);
        assert_eq!(c.trace_replay, "specs/t/index.json");
        // The engine key is inert: applying it changes nothing.
        for engine in [EngineMode::Batched, EngineMode::Event] {
            let mut c = SimConfig::default();
            ConfigPatch::default().with_engine(engine).apply(&mut c);
            assert_eq!(c, SimConfig::default());
        }
    }

    #[test]
    fn validate_checks_hier_knobs() {
        let ok = SimConfig {
            hier_region_side: 4,
            hier_change_threshold: 0.02,
            ..SimConfig::mega_mesh(16)
        };
        assert!(ok.validate().is_ok());
        let c = SimConfig {
            hier_change_threshold: -0.1,
            hier_region_side: 4,
            ..SimConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("non-negative"));
        let c = SimConfig {
            hier_change_threshold: f64::NAN,
            hier_region_side: 4,
            ..SimConfig::default()
        };
        assert!(c.validate().is_err());
        // Warm starts without the hierarchy are a misconfiguration, not a
        // silent no-op.
        let c = SimConfig {
            hier_change_threshold: 0.02,
            ..SimConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("hier_region_side"));
    }

    #[test]
    fn mega_mesh_presets_have_the_advertised_tile_counts() {
        assert_eq!(SimConfig::mega_mesh(16).num_banks(), 256);
        assert_eq!(SimConfig::mega_mesh(32).num_banks(), 1024);
        assert!(SimConfig::mega_mesh(16).validate().is_ok());
        assert!(SimConfig::mega_mesh(32).validate().is_ok());
    }

    #[test]
    fn patch_applies_hier_overrides() {
        let patch = ConfigPatch::named("hier-r4")
            .with_hier_region_side(4)
            .with_hier_change_threshold(0.02);
        assert!(!patch.is_identity());
        let mut c = SimConfig::mega_mesh(16);
        patch.apply(&mut c);
        assert_eq!(c.hier_region_side, 4);
        assert_eq!(c.hier_change_threshold, 0.02);
    }

    #[test]
    fn validate_rejects_granularity_above_bank_capacity() {
        let base = SimConfig::default();
        let c = SimConfig {
            alloc_granularity: base.bank_lines + 1,
            ..base.clone()
        };
        assert!(c.validate().unwrap_err().contains("granularity"));
        // Whole-bank allocation (the §VI-C coarse-grain ablation) stays
        // legal: granularity == bank_lines.
        let c = SimConfig {
            alloc_granularity: base.bank_lines,
            ..base
        };
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validate_rejects_unwarmed_reconfiguring_schemes() {
        let c = SimConfig {
            scheme: crate::Scheme::cdcs(),
            warmup_epochs: 0,
            ..SimConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("warm-up"));
        // Static schemes have no reconfiguration transient to warm past.
        let c = SimConfig {
            scheme: crate::Scheme::SNuca,
            warmup_epochs: 0,
            ..SimConfig::default()
        };
        assert!(c.validate().is_ok());
    }

    #[test]
    fn config_patch_applies_only_set_fields() {
        let base = SimConfig::default();
        let patch = ConfigPatch::named("coarse")
            .with_alloc_granularity(8192)
            .with_move_scheme(MoveScheme::BulkInvalidate);
        assert_eq!(patch.display_label(), "coarse");
        assert!(!patch.is_identity());
        assert!(ConfigPatch::default().is_identity());
        assert_eq!(ConfigPatch::default().display_label(), "base");
        let mut patched = base.clone();
        patch.apply(&mut patched);
        assert_eq!(patched.alloc_granularity, 8192);
        assert_eq!(patched.move_scheme, MoveScheme::BulkInvalidate);
        // Untouched fields survive.
        assert_eq!(patched.epoch_cycles, base.epoch_cycles);
        assert_eq!(patched.monitor_kind, base.monitor_kind);
    }

    #[test]
    fn case_study_is_36_tiles() {
        assert_eq!(SimConfig::case_study().num_banks(), 36);
    }
}
