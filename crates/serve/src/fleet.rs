//! Fleet coordination: runners, leases, and held polls.
//!
//! The daemon's scheduler already claims cells one at a time from job
//! sessions — this module turns that claim point into a *worker
//! protocol*. A [`Fleet`] tracks registered runners, grants each poll one
//! leased [`WorkUnit`], and revokes leases whose heartbeats stop —
//! re-queueing the unit through the session seam so a dead runner costs
//! only its in-flight cells. Results flow back through [`Fleet::result`],
//! which is exactly-once by construction: the lease table is consulted
//! and cleared under the fleet's single mutex, so a revoked lease's late
//! result is detectably stale and dropped.
//!
//! A poll is *held*: it claims through `Scheduler::claim` — the same
//! fairness step a local pool worker takes — and, when nothing is
//! claimable, waits on the rotation for up to its hold window (the
//! `poll_ms` advertised at registration). The first unit that a submit or
//! a re-queue makes claimable goes straight to a parked poll; only a
//! window that runs out answers `{"lease":null}`. The unit is leased to
//! the runner that polled: runners hold no per-key state, so there is
//! nothing to route. A runner silent past its TTL is expired and its
//! leases re-queued.
//!
//! None of this can change report bytes: every cell's result derives
//! from `(config, cell)` alone, so *where* a unit runs — and how many
//! times a revoked unit re-runs — is invisible in the artifact. The
//! fleet e2e suite pins byte-equality against the in-process report
//! under fleet sizes, runner kills, and injected `lose_lease` faults.
//!
//! Lock order: a poll waits on the rotation with no fleet lock held, then
//! takes `fleet` briefly to grant, so heartbeats, results, `/fleet` and
//! the watchdog never queue behind a parked poll. No path nests
//! `rotation` inside `fleet` (see `lints::lock_order::ORDER`), and
//! nothing acquires `fleet` from inside the scheduler or a job.

use crate::faults::FaultPlan;
use crate::job::{Job, LeasePayload, WorkUnit};
use crate::lease::LeaseTable;
use crate::protocol::{FleetStatus, LeaseGrant, LeaseResult, RegisterReply, RunnerStatus};
use crate::scheduler::{run_contained, Claim, Scheduler};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Fleet knobs (all defaultable; the server wires CLI flags through).
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Heartbeat window: a lease unbeaten for this long is revoked.
    pub lease_ttl: Duration,
    /// Liveness window: a runner silent (no poll/beat/result) for this
    /// long is deregistered and its work re-queued.
    pub runner_ttl: Duration,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            lease_ttl: Duration::from_secs(5),
            runner_ttl: Duration::from_secs(20),
        }
    }
}

/// One registered runner.
struct RunnerEntry {
    name: String,
    /// Last poll/heartbeat/result — the liveness clock.
    last_seen: Instant,
    completed: usize,
}

/// Everything the fleet mutex guards.
struct FleetState {
    runners: BTreeMap<u64, RunnerEntry>,
    leases: LeaseTable,
    next_runner_id: u64,
    completed: usize,
    requeued: usize,
}

/// The fleet coordinator, owned by the server.
pub struct Fleet {
    fleet: Mutex<FleetState>,
    config: FleetConfig,
    faults: Arc<FaultPlan>,
}

/// Why a poll was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PollError {
    /// The runner is unknown (expired, possibly while its poll was
    /// parked, or never registered): it must re-register.
    Unknown,
    /// The scheduler stopped: the daemon is shutting down.
    Stopped,
}

/// Returns revoked or un-granted units to their sessions and their jobs
/// to the rotation (waking parked claims). Call **without** the fleet
/// lock.
fn requeue(units: Vec<(Arc<Job>, WorkUnit)>, sched: &Scheduler) {
    for (job, unit) in units {
        job.requeue_unit(unit);
        sched.reenqueue(job);
    }
}

impl Fleet {
    /// An empty fleet.
    pub fn new(config: FleetConfig, faults: Arc<FaultPlan>) -> Fleet {
        Fleet {
            fleet: Mutex::new(FleetState {
                runners: BTreeMap::new(),
                leases: LeaseTable::new(),
                next_runner_id: 0,
                completed: 0,
                requeued: 0,
            }),
            config,
            faults,
        }
    }

    // The fleet state is only mutated in straight-line code (no user code
    // runs under this lock), so a poisoned guard's data is intact;
    // recovering keeps one panicked thread from wedging every runner.
    fn lock_fleet(&self) -> MutexGuard<'_, FleetState> {
        self.fleet.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The longest a poll waits for work before answering
    /// `{"lease":null}` (advertised as `poll_ms`): a fifth of the lease
    /// TTL within 10–500 ms, and never more than half the runner TTL, so
    /// a parked runner cannot expire for want of a poll.
    fn hold(&self) -> Duration {
        (self.config.lease_ttl / 5)
            .clamp(Duration::from_millis(10), Duration::from_millis(500))
            .min(self.config.runner_ttl / 2)
    }

    /// Registers a runner: assigns its id and returns the protocol knobs
    /// it must honor.
    pub fn register(&self, name: &str) -> RegisterReply {
        let mut state = self.lock_fleet();
        state.next_runner_id += 1;
        let id = state.next_runner_id;
        state.runners.insert(
            id,
            RunnerEntry {
                name: name.to_string(),
                // lint: allow(determinism) — liveness bookkeeping only;
                // no result byte depends on wall-clock reads.
                last_seen: Instant::now(),
                completed: 0,
            },
        );
        RegisterReply {
            runner_id: id,
            lease_ttl_ms: self.config.lease_ttl.as_millis() as u64,
            poll_ms: self.hold().as_millis() as u64,
        }
    }

    /// Deregisters a runner (graceful exit) and re-queues its outstanding
    /// leases. `false` if unknown.
    pub fn deregister(&self, runner: u64, sched: &Scheduler) -> bool {
        let lost = {
            let mut state = self.lock_fleet();
            if state.runners.remove(&runner).is_none() {
                return false;
            }
            forget(&mut state, runner)
        };
        requeue(lost, sched);
        true
    }

    /// Handles one held poll: refreshes the runner's liveness, claims one
    /// unit — waiting up to the hold window for one to become claimable,
    /// with no fleet lock held — and leases it to this runner. `Ok(None)`
    /// means the window ran out. A runner expired while its poll was
    /// parked gets `Unknown` and its claimed unit is re-queued.
    pub fn poll(&self, runner: u64, sched: &Scheduler) -> Result<Option<LeaseGrant>, PollError> {
        if !touch(&mut self.lock_fleet(), runner) {
            return Err(PollError::Unknown);
        }
        let claimed = match sched.claim(Some(Instant::now() + self.hold())) {
            Claim::Unit(job, unit) => Some((job, unit)),
            Claim::Empty => None,
            Claim::Stopped => return Err(PollError::Stopped),
        };
        let mut lost = Vec::new();
        let reply = {
            let mut state = self.lock_fleet();
            if touch(&mut state, runner) {
                Ok(claimed.map(|(job, unit)| self.grant(&mut state, runner, job, unit, &mut lost)))
            } else {
                lost.extend(claimed);
                Err(PollError::Unknown)
            }
        };
        requeue(lost, sched);
        reply
    }

    /// Builds the lease grant for one unit. An injected `lose_lease`
    /// fault dooms the grant: the unit is re-queued immediately and the
    /// lease never enters the table, so the runner's heartbeats and
    /// result land stale — the full revocation path, deterministically.
    fn grant(
        &self,
        state: &mut FleetState,
        runner: u64,
        job: Arc<Job>,
        unit: WorkUnit,
        lost: &mut Vec<(Arc<Job>, WorkUnit)>,
    ) -> LeaseGrant {
        let doomed = matches!(unit, WorkUnit::Cell(i) if self.faults.on_lease(i));
        let lease_id = state.leases.grant(runner, Arc::clone(&job), unit);
        if doomed {
            state.leases.complete(lease_id);
            state.requeued += 1;
            lost.push((Arc::clone(&job), unit));
        }
        let mut grant = LeaseGrant {
            lease_id,
            job_id: job.id,
            ..LeaseGrant::default()
        };
        match job.lease_payload(unit) {
            LeasePayload::Cell(config, cell) => {
                if let WorkUnit::Cell(i) = unit {
                    grant.cell_index = Some(i);
                }
                grant.config = Some(config);
                grant.cell = Some(*cell);
            }
            LeasePayload::Spec(spec) => grant.spec = Some(spec),
        }
        grant
    }

    /// Records a heartbeat. `false` means the lease is gone (revoked or
    /// completed): the runner should abandon the work.
    pub fn heartbeat(&self, lease_id: u64) -> bool {
        let mut state = self.lock_fleet();
        state.leases.beat(lease_id)
    }

    /// Accepts a lease's result. `false` means the lease was already
    /// revoked — the result is stale and discarded (its unit re-queued,
    /// possibly already re-run; byte-equal either way).
    pub fn result(&self, lease_id: u64, body: LeaseResult) -> bool {
        let lease = {
            let mut state = self.lock_fleet();
            let lease = state.leases.complete(lease_id);
            if let Some(lease) = &lease {
                state.completed += 1;
                touch(&mut state, lease.runner);
                if let Some(entry) = state.runners.get_mut(&lease.runner) {
                    entry.completed += 1;
                }
            }
            lease
        };
        let Some(lease) = lease else { return false };
        match lease.unit {
            WorkUnit::Cell(i) => {
                let result = match (body.ok, body.err) {
                    (Some(result), _) => Ok(result),
                    (None, Some(err)) => Err(err),
                    (None, None) => Err("runner returned an empty result".into()),
                };
                lease.job.deliver_cell(i, result);
            }
            WorkUnit::Inline => {
                let outcome = match (body.report_json, body.err) {
                    (Some(json), _) => Ok(json),
                    (None, Some(err)) => Err(err),
                    (None, None) => Err("runner returned an empty result".into()),
                };
                lease.job.deliver_inline(outcome);
            }
        }
        run_contained(&lease.job, None);
        true
    }

    /// One watchdog tick: revokes leases past the heartbeat window and
    /// expires runners silent past the liveness window, re-queueing
    /// everything they held.
    pub fn tick(&self, sched: &Scheduler) {
        let lost = {
            let mut state = self.lock_fleet();
            let revoked = state.leases.revoke_expired(self.config.lease_ttl);
            state.requeued += revoked.len();
            let mut lost: Vec<_> = revoked.into_iter().map(|l| (l.job, l.unit)).collect();
            let dead: Vec<u64> = state
                .runners
                .iter()
                .filter(|(_, e)| e.last_seen.elapsed() > self.config.runner_ttl)
                .map(|(id, _)| *id)
                .collect();
            for id in dead {
                state.runners.remove(&id);
                lost.extend(forget(&mut state, id));
            }
            lost
        };
        requeue(lost, sched);
    }

    /// Fleet-wide observability counters.
    pub fn status(&self) -> FleetStatus {
        let state = self.lock_fleet();
        FleetStatus {
            runners: state
                .runners
                .iter()
                .map(|(id, entry)| RunnerStatus {
                    id: *id,
                    name: entry.name.clone(),
                    active_leases: state.leases.active_for(*id),
                    completed: entry.completed,
                })
                .collect(),
            active_leases: state.leases.active(),
            completed: state.completed,
            requeued: state.requeued,
        }
    }
}

/// Refreshes a runner's liveness clock. `false` if the runner is unknown.
fn touch(state: &mut FleetState, runner: u64) -> bool {
    match state.runners.get_mut(&runner) {
        Some(entry) => {
            // lint: allow(determinism) — liveness bookkeeping only.
            entry.last_seen = Instant::now();
            true
        }
        None => false,
    }
}

/// Revokes every lease a departed runner held, counting them as
/// re-queued, and returns their units for [`requeue`].
fn forget(state: &mut FleetState, runner: u64) -> Vec<(Arc<Job>, WorkUnit)> {
    let revoked = state.leases.revoke_runner(runner);
    state.requeued += revoked.len();
    revoked.into_iter().map(|l| (l.job, l.unit)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet(lease_ttl_ms: u64, runner_ttl_ms: u64) -> Fleet {
        let config = FleetConfig {
            lease_ttl: Duration::from_millis(lease_ttl_ms),
            runner_ttl: Duration::from_millis(runner_ttl_ms),
        };
        Fleet::new(config, Arc::new(FaultPlan::default()))
    }

    #[test]
    fn the_hold_is_a_fifth_of_the_lease_ttl_and_at_most_half_the_runner_ttl() {
        for (lease, runner, hold) in [
            (5_000, 20_000, 500),
            (2_000, 20_000, 400),
            (300, 600, 60),
            (20, 20_000, 10),
            (5_000, 400, 200),
        ] {
            let fleet = fleet(lease, runner);
            assert_eq!(
                fleet.hold(),
                Duration::from_millis(hold),
                "{lease}/{runner}"
            );
            assert_eq!(fleet.register("r").poll_ms, hold, "advertised as poll_ms");
        }
    }

    #[test]
    fn polls_from_unknown_runners_and_on_a_stopped_scheduler_answer_at_once() {
        let fleet = fleet(5_000, 20_000);
        let sched = Scheduler::new();
        let started = Instant::now();
        assert_eq!(fleet.poll(7, &sched), Err(PollError::Unknown));
        let me = fleet.register("r").runner_id;
        sched.stop();
        assert_eq!(fleet.poll(me, &sched), Err(PollError::Stopped));
        assert!(
            started.elapsed() < fleet.hold() / 2,
            "neither poll may wait out the hold"
        );
    }
}
