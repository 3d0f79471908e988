//! Fair scheduling of concurrent jobs over one shared worker pool.
//!
//! Jobs sit in a FIFO rotation. A worker pops the front job, claims **one**
//! unit of work from it under the scheduler lock, pushes the job to the
//! back, and executes the unit outside the lock. With several active jobs
//! the claim sequence therefore strictly interleaves them — two concurrent
//! sweeps each make progress on every rotation lap, regardless of their
//! sizes (no starvation; the fairness test pins the alternation). A job
//! whose claim comes back empty (drained or cancelled) leaves the rotation
//! and is finalized.
//!
//! Claims are recorded in a log (job ids, in claim order) so fairness is
//! observable and testable without timing assumptions.
//!
//! One claim function (`Scheduler::claim`) serves both kinds of worker:
//! a pool worker waits for work with no deadline, a fleet poll
//! ([`crate::fleet`]) waits until its hold window ends. Either way the
//! wait is on the rotation `Condvar`, so `enqueue`/`reenqueue` hands new
//! work to a waiting claimant at once.
//!
//! Workers are expendable-proof: the whole execute/finalize step runs
//! inside `catch_unwind`, so an unwind that escapes the per-cell panic
//! boundary fails *that job* (with the captured message) and the worker
//! returns to the rotation — a poisoned job can never shrink the pool or
//! take the daemon down. Shutdown comes in two flavors: [`Scheduler::stop`]
//! (running cells finish, queued work is abandoned) and
//! [`Scheduler::drain`] (workers keep claiming until every queued cell has
//! run, then exit).

use crate::job::{panic_message, Job, WorkUnit};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

#[derive(Default)]
struct Rotation {
    queue: VecDeque<Arc<Job>>,
    claim_log: Vec<u64>,
}

/// The shared scheduler: rotation + pool wake-up.
pub struct Scheduler {
    rotation: Mutex<Rotation>,
    cv: Condvar,
    shutdown: AtomicBool,
    draining: AtomicBool,
}

/// What one `Scheduler::claim` got.
pub(crate) enum Claim {
    /// A claimed unit of `job`'s work (job already re-queued).
    Unit(Arc<Job>, WorkUnit),
    /// Nothing became claimable before the deadline.
    Empty,
    /// The scheduler stopped, or is draining with an empty rotation.
    Stopped,
}

impl Scheduler {
    /// An empty scheduler.
    pub fn new() -> Scheduler {
        Scheduler {
            rotation: Mutex::new(Rotation::default()),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
        }
    }

    /// Adds a job to the rotation and wakes every waiting claim.
    pub fn enqueue(&self, job: Arc<Job>) {
        let mut rotation = self.lock();
        rotation.queue.push_back(job);
        self.cv.notify_all();
    }

    /// Stops the pool: blocked claims wake and return; running cells
    /// finish; queued cells are abandoned.
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _rotation = self.lock();
        self.cv.notify_all();
    }

    /// Drains the pool: workers keep claiming until the rotation is empty
    /// (every queued cell of every job has run), then exit.
    pub fn drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
        let _rotation = self.lock();
        self.cv.notify_all();
    }

    /// The claim sequence so far (job ids, in claim order).
    pub fn claim_log(&self) -> Vec<u64> {
        self.lock().claim_log.clone()
    }

    /// Returns a job to the rotation after a revoked lease re-queued some
    /// of its work (no-op if the job is already rotating — a job must
    /// never occupy two rotation slots, or fairness double-counts it).
    pub fn reenqueue(&self, job: Arc<Job>) {
        let mut rotation = self.lock();
        if rotation.queue.iter().any(|j| j.id == job.id) {
            return;
        }
        rotation.queue.push_back(job);
        self.cv.notify_all();
    }

    /// Starts `workers` pool threads driving this scheduler.
    pub fn start_pool(self: &Arc<Self>, workers: usize) -> Vec<JoinHandle<()>> {
        (0..workers.max(1))
            .map(|_| {
                let sched = Arc::clone(self);
                std::thread::spawn(move || sched.worker_loop())
            })
            .collect()
    }

    fn worker_loop(&self) {
        while let Claim::Unit(job, unit) = self.claim(None) {
            run_contained(&job, Some(unit));
        }
    }

    /// The one claim path, shared by pool workers and fleet polls: pops
    /// jobs off the rotation front (at most one lap per look) and claims
    /// **one** unit from the first that has work (see module docs). Jobs
    /// whose claim comes back empty leave the rotation and are finalized
    /// *outside* the rotation lock before the claim returns. With the
    /// rotation empty, the claim waits on the rotation `Condvar` until
    /// `enqueue`/`reenqueue` adds work, the scheduler stops, or
    /// `deadline` passes (`None` waits for work or a stop).
    pub(crate) fn claim(&self, deadline: Option<Instant>) -> Claim {
        let mut drained = Vec::new();
        let mut rotation = self.lock();
        loop {
            if !drained.is_empty() {
                drop(rotation);
                finalize(&mut drained);
                rotation = self.lock();
            }
            if self.shutdown.load(Ordering::SeqCst) {
                return Claim::Stopped;
            }
            for _ in 0..rotation.queue.len() {
                let Some(job) = rotation.queue.pop_front() else {
                    break;
                };
                match job.try_claim() {
                    Some(unit) => {
                        rotation.claim_log.push(job.id);
                        rotation.queue.push_back(Arc::clone(&job));
                        drop(rotation);
                        finalize(&mut drained);
                        return Claim::Unit(job, unit);
                    }
                    None => drained.push(job),
                }
            }
            if !drained.is_empty() {
                continue;
            }
            if self.draining.load(Ordering::SeqCst) {
                // Draining and the rotation is empty: every queued cell
                // has been claimed (in-flight ones finish on their own
                // workers). Done.
                return Claim::Stopped;
            }
            rotation = match deadline {
                None => self
                    .cv
                    .wait(rotation)
                    .unwrap_or_else(PoisonError::into_inner),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Claim::Empty;
                    }
                    self.cv
                        .wait_timeout(rotation, deadline - now)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
            };
        }
    }

    // The rotation holds only queue order and the claim log — both
    // updated in straight-line code — so a poisoned guard's data is
    // intact and recovering it beats wedging every worker.
    fn lock(&self) -> std::sync::MutexGuard<'_, Rotation> {
        self.rotation.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Finalizes jobs that left the rotation with nothing left to claim.
fn finalize(drained: &mut Vec<Arc<Job>>) {
    for job in drained.drain(..) {
        run_contained(&job, None);
    }
}

/// Runs one claimed unit (or just finalization) with last-resort panic
/// containment: an unwind is converted into the job's failure instead of
/// the worker's death. `pub(crate)` because the fleet's result path
/// finalizes jobs through the same boundary.
pub(crate) fn run_contained(job: &Arc<Job>, unit: Option<WorkUnit>) {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if let Some(unit) = unit {
            job.run(unit);
        }
        job.try_finalize();
    }));
    if let Err(payload) = outcome {
        job.fail_with(format!(
            "internal error executing job {}: {}",
            job.id,
            panic_message(payload.as_ref())
        ));
    }
}

impl Default for Scheduler {
    fn default() -> Self {
        Scheduler::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn claim_honours_its_deadline_and_returns_at_once_on_stop() {
        let sched = Arc::new(Scheduler::new());
        let window = Duration::from_millis(100);
        let started = Instant::now();
        assert!(matches!(sched.claim(Some(started + window)), Claim::Empty));
        let waited = started.elapsed();
        assert!(
            waited >= window && waited < window + Duration::from_secs(2),
            "an empty claim with a {window:?} deadline returned after {waited:?}"
        );

        // A pool worker's claim (no deadline) and a fleet poll's (a far
        // deadline) both wake on stop.
        let parked: Vec<_> = [None, Some(Instant::now() + Duration::from_secs(60))]
            .into_iter()
            .map(|deadline| {
                let sched = Arc::clone(&sched);
                std::thread::spawn(move || {
                    let claim = sched.claim(deadline);
                    (matches!(claim, Claim::Stopped), Instant::now())
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(50));
        let stopped = Instant::now();
        sched.stop();
        for handle in parked {
            let (was_stopped, returned) = handle.join().expect("claim thread");
            assert!(was_stopped, "a parked claim must see the stop");
            let after = returned.saturating_duration_since(stopped);
            assert!(after < Duration::from_secs(1), "woke {after:?} after stop");
        }

        // On a stopped scheduler a claim does not wait at all.
        let started = Instant::now();
        assert!(matches!(
            sched.claim(Some(started + Duration::from_secs(60))),
            Claim::Stopped
        ));
        assert!(started.elapsed() < Duration::from_secs(1));
    }
}
