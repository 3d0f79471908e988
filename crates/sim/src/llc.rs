//! The shared NUCA LLC: banks, mapping, and reconfiguration machinery.
//!
//! Depending on the scheme, lines map to banks via address hashing (S-NUCA),
//! R-NUCA's class policy, or VC descriptors (Jigsaw/CDCS, §III). Partitioned
//! schemes assign one bank partition per VC. Reconfigurations relocate lines
//! using one of the §IV-H movement schemes: instant (idealized), bulk
//! invalidation (Jigsaw: pause + drop), or demand moves with background
//! invalidations (CDCS: shadow descriptors keep the old mapping live while
//! lines migrate on demand and a background walker cleans up).

use crate::scheme::MoveScheme;
use cdcs_cache::{hash, BankId, Line, PartitionId, PartitionedBank};
use cdcs_core::policy::{RNucaPolicy, RnucaClass};
use cdcs_core::{Placement, VcDescriptor};
use cdcs_mesh::{Mesh, TileId};
use cdcs_workload::StreamTarget;
use rustc_hash::FxHashMap;

/// How lines find their bank.
#[derive(Debug, Clone)]
pub(crate) enum Mapping {
    /// S-NUCA: hash over all banks.
    Hashed,
    /// R-NUCA: class-based policy; needs the accessing core for locality.
    RNuca(RNucaPolicy),
    /// Jigsaw/CDCS: per-VC descriptors; shadow descriptors stay live during
    /// incremental reconfigurations (§IV-H, Fig. 3).
    Vtb {
        /// Current descriptor per VC (`None` = zero allocation: bypass LLC).
        desc: Vec<Option<VcDescriptor>>,
        /// Previous-epoch descriptor per VC while a reconfiguration drains.
        shadow: Vec<Option<VcDescriptor>>,
        /// Whether shadow descriptors are consulted.
        shadow_active: bool,
    },
}

/// Where an access is headed, as a pure function of the current mapping
/// state — no bank or movement state is touched. The sharded engine routes
/// every access of an interval first (this is what partitions the batch by
/// home bank), then lets per-bank shards perform the stateful lookups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Route {
    /// Home bank under the current mapping. Meaningless on bypass.
    pub bank: BankId,
    /// The VC has no LLC allocation: the access goes straight to memory.
    pub bypass: bool,
    /// The old bank a miss would consult through the shadow descriptor
    /// (`None` outside a shadow window or when old and new homes agree).
    pub old_bank: Option<BankId>,
}

/// Result of one LLC lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LookupResult {
    /// Bank that served (or homed) the access. Meaningless on bypass.
    pub bank: BankId,
    /// Whether the line was found (including via a demand move).
    pub hit: bool,
    /// The VC has no LLC allocation: the access goes straight to memory.
    pub bypass: bool,
    /// The old bank consulted through the shadow descriptor, if any
    /// (accounts for the two-level lookup latency of Fig. 10).
    pub old_bank_checked: Option<BankId>,
    /// The access was served by a demand move from the old bank (§IV-H).
    pub demand_moved: bool,
    /// A line was evicted by the fill (writeback traffic to memory).
    pub evicted: bool,
}

/// Counters for the movement machinery.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct MoveStats {
    pub demand_moves: u64,
    pub background_invalidations: u64,
    pub bulk_invalidations: u64,
    pub instant_moves: u64,
}

/// The distributed LLC.
#[derive(Debug)]
pub(crate) struct Llc {
    banks: Vec<PartitionedBank>,
    mapping: Mapping,
    bank_lines: u64,
    /// Lines displaced by the last reconfiguration, still serveable from
    /// their old location via demand moves: line → old bank, sharded by the
    /// line's **new** home bank (a pure function of the address at insert
    /// time), so each entry is only ever probed by accesses homed at that
    /// bank — the per-bank shards of the parallel engine own disjoint maps.
    /// Fx-hashed — the maps are probed on every miss while a shadow window
    /// is open and bulk-filled at reconfigurations; nothing observes their
    /// iteration order (`retain` filters per entry, counters are sums).
    old_lines: Vec<FxHashMap<u64, BankId>>,
    /// Cycle at which the current shadow window started.
    shadow_start: u64,
    pub stats: MoveStats,
}

/// Bitflags of one shard-phase lookup outcome (see [`LlcShard`]): the
/// stateful half of a [`LookupResult`], packed for the per-bank outcome
/// queues the deterministic reduction consumes.
pub(crate) const OUT_HIT: u8 = 1;
pub(crate) const OUT_EVICTED: u8 = 1 << 1;
pub(crate) const OUT_DEMAND_MOVED: u8 = 1 << 2;

/// Reassembles the full [`LookupResult`] from an access's pure [`Route`]
/// and its shard-phase `OUT_*` outcome bits. Shared between the serial
/// access path and the sharded engine's reduction, so the two cannot
/// reconstruct results differently.
#[inline]
pub(crate) fn lookup_result(route: Route, out: u8) -> LookupResult {
    if route.bypass {
        return LookupResult {
            bank: BankId(0),
            hit: false,
            bypass: true,
            old_bank_checked: None,
            demand_moved: false,
            evicted: false,
        };
    }
    let demand_moved = out & OUT_DEMAND_MOVED != 0;
    let hit = out & OUT_HIT != 0;
    LookupResult {
        bank: route.bank,
        hit,
        bypass: false,
        // A plain hit reports no old-bank detour; only a miss in the new
        // bank pays the two-level lookup (Fig. 10), and a demand move is
        // such a miss served from the old bank.
        old_bank_checked: if hit && !demand_moved {
            None
        } else {
            route.old_bank
        },
        demand_moved,
        evicted: out & OUT_EVICTED != 0,
    }
}

/// Mutable borrow of one bank's worth of LLC state — the bank's partitions
/// plus the demand-move entries homed at it — handed to one worker of the
/// sharded engine. Shards of the same LLC touch disjoint state, so a rayon
/// fan-out over them is race-free by construction.
#[derive(Debug)]
pub(crate) struct LlcShard<'a> {
    bank: &'a mut PartitionedBank,
    old_lines: &'a mut FxHashMap<u64, BankId>,
    partitioned: bool,
    /// Demand moves served by this shard this interval; merged back into
    /// [`MoveStats`] in bank order after the fan-out (an integer partial
    /// sum, so the merge order cannot change the total).
    pub demand_moves: u64,
}

impl LlcShard<'_> {
    /// Performs the stateful half of [`Llc::access`] for an access already
    /// routed to this shard's bank: the lookup-and-fill plus the demand-move
    /// probe. `check_old` is the route's `old_bank.is_some()`. Returns the
    /// `OUT_*` outcome bits; combined with the precomputed [`Route`], they
    /// reconstruct the exact [`LookupResult`] the serial path produces.
    #[inline]
    pub fn access_routed(&mut self, vc: u32, line: Line, check_old: bool) -> u8 {
        let part = if self.partitioned {
            PartitionId(vc as u16)
        } else {
            PartitionId(0)
        };
        let (hit, evicted) = self.bank.access_insert(part, line);
        if hit {
            return OUT_HIT;
        }
        let mut out = 0u8;
        if check_old && self.old_lines.remove(&line.0).is_some() {
            // Old bank hit: the line moves to its new home (Fig. 10a).
            out |= OUT_HIT | OUT_DEMAND_MOVED;
            self.demand_moves += 1;
        }
        if evicted.is_some() {
            out |= OUT_EVICTED;
        }
        out
    }
}

impl Llc {
    /// Creates an unpartitioned LLC (S-NUCA / R-NUCA).
    pub fn unpartitioned(num_banks: usize, bank_lines: u64, rnuca: Option<RNucaPolicy>) -> Self {
        Llc {
            banks: (0..num_banks)
                .map(|_| PartitionedBank::unpartitioned(bank_lines as usize))
                .collect(),
            mapping: match rnuca {
                Some(p) => Mapping::RNuca(p),
                None => Mapping::Hashed,
            },
            bank_lines,
            old_lines: (0..num_banks).map(|_| FxHashMap::default()).collect(),
            shadow_start: 0,
            stats: MoveStats::default(),
        }
    }

    /// Creates a partitioned LLC (Jigsaw / CDCS) with `num_vcs` partitions
    /// per bank, initially empty (all capacities zero until the first
    /// [`reconfigure`](Self::reconfigure)).
    pub fn partitioned(num_banks: usize, bank_lines: u64, num_vcs: usize) -> Self {
        Llc {
            banks: (0..num_banks)
                .map(|_| PartitionedBank::new(bank_lines as usize, &vec![0; num_vcs]))
                .collect(),
            mapping: Mapping::Vtb {
                desc: vec![None; num_vcs],
                shadow: vec![None; num_vcs],
                shadow_active: false,
            },
            bank_lines,
            old_lines: (0..num_banks).map(|_| FxHashMap::default()).collect(),
            shadow_start: 0,
            stats: MoveStats::default(),
        }
    }

    /// Whether this LLC uses VC descriptors.
    #[allow(dead_code)] // exercised by tests and kept for harness inspection
    pub fn is_partitioned(&self) -> bool {
        matches!(self.mapping, Mapping::Vtb { .. })
    }

    /// Routes an access under the current mapping without touching any
    /// state: the home bank, whether it bypasses, and the shadow-window old
    /// bank a miss would consult. Pure — the sharded engine calls this from
    /// many threads at once while planning an interval's bank shards, and
    /// [`Self::access`] resolves to exactly this route.
    pub fn route(
        &self,
        vc: u32,
        class: StreamTarget,
        core: TileId,
        mesh: &Mesh,
        line: Line,
    ) -> Route {
        match &self.mapping {
            Mapping::Hashed => Route {
                bank: BankId(hash::bucket(line.0, self.banks.len()) as u16),
                bypass: false,
                old_bank: None,
            },
            Mapping::RNuca(policy) => {
                let class = match class {
                    StreamTarget::ThreadPrivate => RnucaClass::Private,
                    StreamTarget::ProcessShared | StreamTarget::Global => RnucaClass::Shared,
                };
                let bank_tile = policy.bank_for(class, line, core, mesh);
                Route {
                    bank: BankId(bank_tile.0),
                    bypass: false,
                    old_bank: None,
                }
            }
            Mapping::Vtb {
                desc,
                shadow,
                shadow_active,
            } => {
                let Some(d) = &desc[vc as usize] else {
                    return Route {
                        bank: BankId(0),
                        bypass: true,
                        old_bank: None,
                    };
                };
                let bank = d.bank_for_line(line);
                let old_bank = if *shadow_active {
                    shadow[vc as usize]
                        .as_ref()
                        .map(|s| s.bank_for_line(line))
                        .filter(|&ob| ob != bank)
                } else {
                    None
                };
                Route {
                    bank,
                    bypass: false,
                    old_bank,
                }
            }
        }
    }

    /// Splits the LLC into per-bank shards for one parallel interval: each
    /// shard owns one bank's partitions and the demand-move entries homed
    /// at that bank. The caller merges each shard's `demand_moves` partial
    /// sum back via [`Self::add_demand_moves`] (in bank order, for a fixed
    /// reduction order) once the borrows end.
    pub fn bank_shards(&mut self) -> Vec<LlcShard<'_>> {
        let partitioned = matches!(self.mapping, Mapping::Vtb { .. });
        self.banks
            .iter_mut()
            .zip(self.old_lines.iter_mut())
            .map(|(bank, old_lines)| LlcShard {
                bank,
                old_lines,
                partitioned,
                demand_moves: 0,
            })
            .collect()
    }

    /// Folds shard-phase demand-move partial sums back into [`MoveStats`].
    pub fn add_demand_moves(&mut self, n: u64) {
        self.stats.demand_moves += n;
    }

    /// Looks up (and on miss, fills) `line` for the given access context.
    ///
    /// Decomposes as route-then-stateful-lookup: the pure [`Self::route`]
    /// picks the bank, and the same per-bank transition [`LlcShard`] runs
    /// in the parallel engine performs the lookup — so the serial and
    /// sharded paths cannot drift apart.
    pub fn access(
        &mut self,
        vc: u32,
        class: StreamTarget,
        core: TileId,
        mesh: &Mesh,
        line: Line,
    ) -> LookupResult {
        let route = self.route(vc, class, core, mesh, line);
        self.access_routed(vc, line, route)
    }

    /// The stateful half of [`Self::access`], given a precomputed route.
    pub fn access_routed(&mut self, vc: u32, line: Line, route: Route) -> LookupResult {
        if route.bypass {
            return lookup_result(route, 0);
        }
        let bank = route.bank;
        let partitioned = matches!(self.mapping, Mapping::Vtb { .. });
        let mut shard = LlcShard {
            bank: &mut self.banks[bank.index()],
            old_lines: &mut self.old_lines[bank.index()],
            partitioned,
            demand_moves: 0,
        };
        // Combined lookup-and-fill: a miss always fills this bank, and the
        // demand-move probe touches disjoint state, so one probe serves
        // both steps. Displaced lines are filed under their new home bank,
        // which is exactly `bank`.
        let out = shard.access_routed(vc, line, route.old_bank.is_some());
        self.stats.demand_moves += shard.demand_moves;
        lookup_result(route, out)
    }

    /// Applies a new placement (partitioned schemes only), relocating lines
    /// per the movement scheme. Returns the cycles all cores pause (non-zero
    /// only for bulk invalidations).
    ///
    /// # Panics
    ///
    /// Panics if called on an unpartitioned LLC.
    pub fn reconfigure(
        &mut self,
        placement: &Placement,
        move_scheme: MoveScheme,
        now_cycles: u64,
        bulk_pause: u64,
    ) -> u64 {
        let num_vcs = placement.num_vcs();
        // Any stragglers from the previous window are dropped now (their
        // background walk has long finished in practice; epochs far exceed
        // the walk window).
        self.stats.background_invalidations += self.pending_old_lines() as u64;
        for m in &mut self.old_lines {
            m.clear();
        }

        // New descriptors, preserving bucket assignments from the current
        // ones where possible to minimize line movement.
        let prev_desc: Vec<Option<VcDescriptor>> = match &self.mapping {
            Mapping::Vtb { desc, .. } => desc.clone(),
            _ => vec![None; num_vcs],
        };
        let new_desc: Vec<Option<VcDescriptor>> = (0..num_vcs)
            .map(|d| {
                let banks = placement.vc_banks(d as u32);
                if banks.is_empty() {
                    None
                } else {
                    Some(
                        VcDescriptor::from_allocation_stable(&banks, prev_desc[d].as_ref())
                            .expect("non-empty allocation builds a descriptor"),
                    )
                }
            })
            .collect();

        // Phase 1: pull every line whose home bank changes out of its old
        // partition *before* resizing — resizing first would evict the very
        // lines the movement machinery is supposed to relocate. Lines are
        // collected MRU-first per partition.
        let mut pause = 0;
        let mut instant_moves: Vec<(usize, PartitionId, Line)> = Vec::new();
        let mut lines_buf: Vec<Line> = Vec::new();
        for (d, desc) in new_desc.iter().enumerate().take(num_vcs) {
            let part = PartitionId(d as u16);
            match desc {
                None => {
                    // VC lost its allocation entirely: every resident line is
                    // invalidated. Wholesale partition clears replace the
                    // per-line walk — same lines dropped, same statistics,
                    // without a hash removal per line (this is the common
                    // bulk case: a streaming VC whose allocation goes to
                    // zero drops tens of thousands of lines here).
                    for b in 0..self.banks.len() {
                        let dropped = self.banks[b].clear_partition(part);
                        match move_scheme {
                            MoveScheme::BulkInvalidate => {
                                self.stats.bulk_invalidations += dropped;
                            }
                            _ => self.stats.background_invalidations += dropped,
                        }
                    }
                }
                Some(nd) => {
                    for b in 0..self.banks.len() {
                        self.banks[b].partition_lines_into(part, &mut lines_buf);
                        for &line in &lines_buf {
                            let nb = nd.bank_for_line(line);
                            if nb.index() == b {
                                continue; // stays put
                            }
                            self.banks[b].invalidate(part, line);
                            match move_scheme {
                                MoveScheme::Instant => {
                                    instant_moves.push((nb.index(), part, line));
                                }
                                MoveScheme::BulkInvalidate => {
                                    self.stats.bulk_invalidations += 1;
                                }
                                MoveScheme::DemandMove => {
                                    // Filed under the line's *new* home so
                                    // the probe on a miss at that bank (and
                                    // only there) finds it.
                                    self.old_lines[nb.index()].insert(line.0, BankId(b as u16));
                                }
                            }
                        }
                    }
                }
            }
        }

        // Phase 2: apply the new partition sizes. Lines that stay in their
        // bank but exceed the shrunken allocation are ordinary LRU evictions
        // (in hardware, Vantage demotes them as the partition shrinks).
        let mut sizes: Vec<usize> = Vec::with_capacity(num_vcs);
        for (b, bank) in self.banks.iter_mut().enumerate() {
            sizes.clear();
            sizes.extend((0..num_vcs).map(|d| placement[(d, b)] as usize));
            bank.resize_partitions(&sizes);
        }

        // Phase 3 (instant moves only): refill relocated lines at their new
        // homes, LRU-first so recency order survives the move.
        for (b, part, line) in instant_moves.into_iter().rev() {
            self.banks[b].fill(part, line);
            self.stats.instant_moves += 1;
        }

        match &mut self.mapping {
            Mapping::Vtb {
                desc,
                shadow,
                shadow_active,
            } => {
                *shadow = std::mem::replace(desc, new_desc);
                *shadow_active = move_scheme == MoveScheme::DemandMove
                    && self.old_lines.iter().any(|m| !m.is_empty());
                self.shadow_start = now_cycles;
                if move_scheme == MoveScheme::BulkInvalidate {
                    pause = bulk_pause;
                }
            }
            _ => panic!("reconfigure called on an unpartitioned LLC"),
        }
        pause
    }

    /// Advances the background-invalidation walker (§IV-H): after
    /// `delay_cycles` from the reconfiguration, old copies are invalidated
    /// at a rate that finishes the walk in `walk_cycles`; when the walk
    /// completes, the shadow descriptors are dropped.
    pub fn background_tick(&mut self, now_cycles: u64, delay_cycles: u64, walk_cycles: u64) {
        let Mapping::Vtb { shadow_active, .. } = &mut self.mapping else {
            return;
        };
        if !*shadow_active {
            return;
        }
        let elapsed = now_cycles.saturating_sub(self.shadow_start);
        if elapsed <= delay_cycles {
            return;
        }
        let progress = ((elapsed - delay_cycles) as f64 / walk_cycles as f64).min(1.0);
        if progress >= 1.0 {
            let pending: u64 = self.old_lines.iter().map(|m| m.len() as u64).sum();
            self.stats.background_invalidations += pending;
            for m in &mut self.old_lines {
                m.clear();
            }
            *shadow_active = false;
            return;
        }
        // Drop a deterministic subset so that `progress` of the original
        // population is gone: keep lines whose hash exceeds the threshold.
        // Per-entry predicate, so sharding the map by bank drops the same
        // set of lines the single map did.
        let threshold = (progress * u64::MAX as f64) as u64;
        let mut dropped = 0u64;
        for m in &mut self.old_lines {
            let before = m.len();
            m.retain(|&l, _| hash::mix64(l) >= threshold);
            dropped += (before - m.len()) as u64;
        }
        self.stats.background_invalidations += dropped;
    }

    /// Whether the shadow window is currently open.
    #[allow(dead_code)] // exercised by tests and kept for harness inspection
    pub fn shadow_active(&self) -> bool {
        matches!(
            self.mapping,
            Mapping::Vtb {
                shadow_active: true,
                ..
            }
        )
    }

    /// Lines still awaiting demand moves or background invalidation.
    pub fn pending_old_lines(&self) -> usize {
        self.old_lines.iter().map(|m| m.len()).sum()
    }

    /// Aggregate hit/miss statistics across banks.
    #[allow(dead_code)] // exercised by tests and kept for harness inspection
    pub fn bank_stats(&self) -> cdcs_cache::BankStats {
        let mut total = cdcs_cache::BankStats::default();
        for b in &self.banks {
            total.merge(&b.stats());
        }
        total
    }

    /// Total lines resident.
    #[allow(dead_code)] // exercised by tests and kept for harness inspection
    pub fn occupancy(&self) -> usize {
        self.banks.iter().map(|b| b.occupancy()).sum()
    }

    /// Lines resident in one VC's partitions across all banks (0 for
    /// unpartitioned LLCs).
    pub fn vc_occupancy(&self, vc: u32) -> u64 {
        if !matches!(self.mapping, Mapping::Vtb { .. }) {
            return 0;
        }
        let part = PartitionId(vc as u16);
        self.banks
            .iter()
            .map(|b| b.partition_len(part) as u64)
            .sum()
    }

    /// Bank capacity in lines.
    #[allow(dead_code)] // exercised by tests and kept for harness inspection
    pub fn bank_lines(&self) -> u64 {
        self.bank_lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vtb_llc_with_placement(alloc: Vec<Vec<u64>>, move_scheme: MoveScheme) -> (Llc, Placement) {
        let num_vcs = alloc.len();
        let banks = alloc[0].len();
        let mut llc = Llc::partitioned(banks, 1024, num_vcs);
        let placement = Placement::from_rows(vec![], alloc);
        llc.reconfigure(&placement, move_scheme, 0, 0);
        (llc, placement)
    }

    #[test]
    fn snuca_spreads_lines_across_banks() {
        let mut llc = Llc::unpartitioned(4, 1024, None);
        let mesh = Mesh::new(2, 2);
        let mut seen = std::collections::HashSet::new();
        for a in 0..200u64 {
            let r = llc.access(0, StreamTarget::ThreadPrivate, TileId(0), &mesh, Line(a));
            assert!(!r.hit, "cold accesses miss");
            seen.insert(r.bank);
        }
        assert_eq!(seen.len(), 4);
        // Re-access: all hits.
        for a in 0..200u64 {
            let r = llc.access(0, StreamTarget::ThreadPrivate, TileId(0), &mesh, Line(a));
            assert!(r.hit);
        }
    }

    #[test]
    fn rnuca_private_goes_local() {
        let mut llc = Llc::unpartitioned(4, 1024, Some(RNucaPolicy::default()));
        let mesh = Mesh::new(2, 2);
        for a in 0..50u64 {
            let r = llc.access(0, StreamTarget::ThreadPrivate, TileId(3), &mesh, Line(a));
            assert_eq!(r.bank, BankId(3));
        }
        // Shared data spreads.
        let mut seen = std::collections::HashSet::new();
        for a in 100..300u64 {
            let r = llc.access(0, StreamTarget::ProcessShared, TileId(3), &mesh, Line(a));
            seen.insert(r.bank);
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn vtb_routes_by_descriptor_and_bypasses_zero_vcs() {
        let (mut llc, _) = vtb_llc_with_placement(
            vec![vec![1024, 0], vec![0, 0]], // vc0 in bank 0 only; vc1 nothing
            MoveScheme::Instant,
        );
        let mesh = Mesh::new(2, 1);
        let r = llc.access(0, StreamTarget::ThreadPrivate, TileId(0), &mesh, Line(1));
        assert_eq!(r.bank, BankId(0));
        assert!(!r.bypass);
        let r = llc.access(1, StreamTarget::ThreadPrivate, TileId(0), &mesh, Line(2));
        assert!(r.bypass, "zero-allocation VC must bypass the LLC");
    }

    #[test]
    fn partitions_isolate_vcs() {
        let (mut llc, _) =
            vtb_llc_with_placement(vec![vec![512, 0], vec![512, 0]], MoveScheme::Instant);
        let mesh = Mesh::new(2, 1);
        // Same line number in two VCs (different address spaces in practice,
        // but even identical raw lines must not alias across partitions).
        llc.access(0, StreamTarget::ThreadPrivate, TileId(0), &mesh, Line(7));
        let r = llc.access(1, StreamTarget::ThreadPrivate, TileId(0), &mesh, Line(7));
        assert!(!r.hit, "VCs must not share lines");
    }

    #[test]
    fn instant_moves_relocate_lines() {
        let (mut llc, _) = vtb_llc_with_placement(vec![vec![1024, 0]], MoveScheme::Instant);
        let mesh = Mesh::new(2, 1);
        for a in 0..100u64 {
            llc.access(0, StreamTarget::ThreadPrivate, TileId(0), &mesh, Line(a));
        }
        // Move the VC to bank 1.
        let placement = Placement::from_rows(vec![], vec![vec![0, 1024]]);
        llc.reconfigure(&placement, MoveScheme::Instant, 1000, 0);
        assert_eq!(llc.stats.instant_moves, 100);
        // All lines hit immediately at the new bank.
        for a in 0..100u64 {
            let r = llc.access(0, StreamTarget::ThreadPrivate, TileId(0), &mesh, Line(a));
            assert!(r.hit, "line {a} lost by instant move");
            assert_eq!(r.bank, BankId(1));
        }
    }

    #[test]
    fn bulk_invalidation_drops_lines_and_pauses() {
        let (mut llc, _) = vtb_llc_with_placement(vec![vec![1024, 0]], MoveScheme::BulkInvalidate);
        let mesh = Mesh::new(2, 1);
        for a in 0..100u64 {
            llc.access(0, StreamTarget::ThreadPrivate, TileId(0), &mesh, Line(a));
        }
        let placement = Placement::from_rows(vec![], vec![vec![0, 1024]]);
        let pause = llc.reconfigure(&placement, MoveScheme::BulkInvalidate, 1000, 12345);
        assert_eq!(pause, 12345);
        assert_eq!(llc.stats.bulk_invalidations, 100);
        // Everything misses at the new bank.
        let r = llc.access(0, StreamTarget::ThreadPrivate, TileId(0), &mesh, Line(5));
        assert!(!r.hit);
    }

    #[test]
    fn demand_moves_serve_from_old_bank() {
        let (mut llc, _) = vtb_llc_with_placement(vec![vec![1024, 0]], MoveScheme::DemandMove);
        let mesh = Mesh::new(2, 1);
        for a in 0..100u64 {
            llc.access(0, StreamTarget::ThreadPrivate, TileId(0), &mesh, Line(a));
        }
        let placement = Placement::from_rows(vec![], vec![vec![0, 1024]]);
        llc.reconfigure(&placement, MoveScheme::DemandMove, 1000, 0);
        assert!(llc.shadow_active());
        assert_eq!(llc.pending_old_lines(), 100);
        // First access after reconfiguration: a demand move, counted as hit.
        let r = llc.access(0, StreamTarget::ThreadPrivate, TileId(0), &mesh, Line(5));
        assert!(r.demand_moved && r.hit);
        assert_eq!(r.old_bank_checked, Some(BankId(0)));
        assert_eq!(llc.stats.demand_moves, 1);
        // Second access: a plain hit at the new bank.
        let r = llc.access(0, StreamTarget::ThreadPrivate, TileId(0), &mesh, Line(5));
        assert!(r.hit && !r.demand_moved);
    }

    #[test]
    fn background_walk_cleans_up_and_closes_shadow() {
        let (mut llc, _) = vtb_llc_with_placement(vec![vec![1024, 0]], MoveScheme::DemandMove);
        let mesh = Mesh::new(2, 1);
        for a in 0..100u64 {
            llc.access(0, StreamTarget::ThreadPrivate, TileId(0), &mesh, Line(a));
        }
        let placement = Placement::from_rows(vec![], vec![vec![0, 1024]]);
        llc.reconfigure(&placement, MoveScheme::DemandMove, 1000, 0);
        // Before the delay: nothing happens.
        llc.background_tick(1000 + 10, 50, 100);
        assert_eq!(llc.pending_old_lines(), 100);
        // Mid-walk: roughly half gone.
        llc.background_tick(1000 + 50 + 50, 50, 100);
        let pending = llc.pending_old_lines();
        assert!(pending < 80 && pending > 20, "pending {pending}");
        // Walk complete: shadow closes.
        llc.background_tick(1000 + 50 + 200, 50, 100);
        assert_eq!(llc.pending_old_lines(), 0);
        assert!(!llc.shadow_active());
        // Accesses now miss (the moved lines were never demanded).
        let r = llc.access(0, StreamTarget::ThreadPrivate, TileId(0), &mesh, Line(5));
        assert!(!r.hit);
    }

    #[test]
    fn route_is_the_pure_prefix_of_access() {
        // `access` is literally route + stateful lookup; hold the route's
        // fields against the produced results across a shadow window.
        let (mut llc, _) = vtb_llc_with_placement(vec![vec![1024, 0]], MoveScheme::DemandMove);
        let mesh = Mesh::new(2, 1);
        for a in 0..50u64 {
            llc.access(0, StreamTarget::ThreadPrivate, TileId(0), &mesh, Line(a));
        }
        let placement = Placement::from_rows(vec![], vec![vec![0, 1024]]);
        llc.reconfigure(&placement, MoveScheme::DemandMove, 1000, 0);
        for a in 0..80u64 {
            let route = llc.route(0, StreamTarget::ThreadPrivate, TileId(0), &mesh, Line(a));
            let result = llc.access(0, StreamTarget::ThreadPrivate, TileId(0), &mesh, Line(a));
            assert_eq!(result.bank, route.bank);
            assert!(!route.bypass);
            assert_eq!(route.bank, BankId(1));
            assert_eq!(route.old_bank, Some(BankId(0)));
            if a < 50 {
                assert!(result.demand_moved, "line {a} was displaced");
            }
        }
        // Bypass routes report as such.
        let llc2 = Llc::partitioned(2, 1024, 1);
        let r = llc2.route(0, StreamTarget::ThreadPrivate, TileId(0), &mesh, Line(7));
        assert!(r.bypass);
    }

    #[test]
    fn shard_processing_matches_serial_access() {
        // Two identical LLCs mid shadow window; one runs a mixed two-VC
        // access sequence serially, the other routes it, partitions by
        // home bank (order-preserving), drains each bank's shard, and
        // reassembles results through `lookup_result` — the sharded
        // engine's exact recipe. Results, movement stats and pending
        // shadow lines must all match.
        let mesh = Mesh::new(2, 1);
        let line = |vc: u64, a: u64| Line((vc << 40) | a); // engine tagging
        let build = || {
            let (mut llc, _) =
                vtb_llc_with_placement(vec![vec![512, 0], vec![0, 512]], MoveScheme::DemandMove);
            for a in 0..400u64 {
                llc.access(0, StreamTarget::ThreadPrivate, TileId(0), &mesh, line(0, a));
                llc.access(1, StreamTarget::ThreadPrivate, TileId(1), &mesh, line(1, a));
            }
            // Swap the VCs' banks: every resident line is displaced into
            // the shadow window, filed under its new home.
            let placement = Placement::from_rows(vec![], vec![vec![0, 512], vec![512, 0]]);
            llc.reconfigure(&placement, MoveScheme::DemandMove, 1000, 0);
            llc
        };
        let mut serial = build();
        let mut sharded = build();
        let accesses: Vec<(u32, Line)> = (0..600u64)
            .flat_map(|a| [(0u32, line(0, a)), (1u32, line(1, a))])
            .collect();

        let serial_results: Vec<LookupResult> = accesses
            .iter()
            .map(|&(vc, l)| serial.access(vc, StreamTarget::ThreadPrivate, TileId(0), &mesh, l))
            .collect();

        let routes: Vec<Route> = accesses
            .iter()
            .map(|&(vc, l)| sharded.route(vc, StreamTarget::ThreadPrivate, TileId(0), &mesh, l))
            .collect();
        let mut lists: Vec<Vec<usize>> = vec![Vec::new(); 2];
        for (i, r) in routes.iter().enumerate() {
            lists[r.bank.index()].push(i);
        }
        let mut outs: Vec<Vec<u8>> = vec![Vec::new(); 2];
        let moved: u64 = {
            let mut shards = sharded.bank_shards();
            for (b, shard) in shards.iter_mut().enumerate() {
                for &i in &lists[b] {
                    let (vc, l) = accesses[i];
                    outs[b].push(shard.access_routed(vc, l, routes[i].old_bank.is_some()));
                }
            }
            shards.iter().map(|s| s.demand_moves).sum()
        };
        sharded.add_demand_moves(moved);

        let mut cursors = [0usize; 2];
        for (i, r) in routes.iter().enumerate() {
            let b = r.bank.index();
            let out = outs[b][cursors[b]];
            cursors[b] += 1;
            assert_eq!(lookup_result(*r, out), serial_results[i], "access {i}");
        }
        assert!(serial.stats.demand_moves > 0, "shadow window went unused");
        assert_eq!(serial.stats, sharded.stats);
        assert_eq!(serial.pending_old_lines(), sharded.pending_old_lines());
        assert_eq!(serial.occupancy(), sharded.occupancy());
    }

    #[test]
    #[should_panic(expected = "unpartitioned")]
    fn reconfigure_unpartitioned_panics() {
        let mut llc = Llc::unpartitioned(2, 1024, None);
        let placement = Placement::from_rows(vec![], vec![vec![0, 0]]);
        llc.reconfigure(&placement, MoveScheme::Instant, 0, 0);
    }

    #[test]
    fn resize_shrink_evicts() {
        let (mut llc, _) = vtb_llc_with_placement(vec![vec![1024, 0]], MoveScheme::Instant);
        let mesh = Mesh::new(2, 1);
        for a in 0..1000u64 {
            llc.access(0, StreamTarget::ThreadPrivate, TileId(0), &mesh, Line(a));
        }
        assert_eq!(llc.occupancy(), 1000);
        // Shrink to 100 lines in the same bank.
        let placement = Placement::from_rows(vec![], vec![vec![100, 0]]);
        llc.reconfigure(&placement, MoveScheme::Instant, 10, 0);
        assert!(llc.occupancy() <= 100);
    }
}
