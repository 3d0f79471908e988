//! Cancellation races: `DELETE` concurrent with completion, deadline
//! expiry concurrent with the final cell, and double-cancel. The outcome
//! of a race is legitimately nondeterministic — what must hold on every
//! interleaving is *consistency*: the job lands in exactly one terminal
//! state, the status invariants hold, a report exists iff the state is
//! `Done`, and repeating the losing operation changes nothing.

use cdcs_bench::exp::{BaseConfig, ExperimentSpec, GridSpec, MixEntry, SpecKind};
use cdcs_serve::protocol::{JobState, JobStatus};
use cdcs_serve::{Client, JobServer};
use cdcs_sim::runner::CellRun;
use cdcs_sim::Scheme;
use cdcs_workload::MixSpec;
use std::time::Duration;

fn cells_spec(name: &str, apps: &[&str]) -> ExperimentSpec {
    ExperimentSpec {
        name: name.into(),
        kind: SpecKind::Grid(GridSpec {
            base: BaseConfig::SmallTest,
            schemes: vec![Scheme::cdcs()],
            mixes: apps
                .iter()
                .map(|app| MixEntry::auto(MixSpec::Named(vec![app.to_string()])))
                .collect(),
            seeds: Vec::new(),
            patches: Vec::new(),
            run: CellRun::Steady,
            weighted_speedup: false,
            auto_intra_cell: false,
        }),
    }
}

fn wait_terminal(client: &Client, id: u64) -> JobStatus {
    loop {
        let status = client.status(id).expect("status");
        if status.state.is_terminal() {
            return status;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The race-invariant oracle: whatever won the race, the terminal status
/// must be internally consistent and agree with the report endpoint.
fn assert_consistent(client: &Client, status: &JobStatus, allowed: &[JobState]) {
    assert!(
        allowed.contains(&status.state),
        "unexpected terminal state: {status:?}"
    );
    assert!(status.issued_cells <= status.total_cells, "{status:?}");
    assert!(status.completed_cells <= status.issued_cells, "{status:?}");
    match status.state {
        JobState::Done => {
            assert_eq!(status.completed_cells, status.total_cells, "{status:?}");
            client
                .report(status.id)
                .expect("a Done job must serve its report");
        }
        JobState::Failed => {
            assert!(status.error.is_some(), "{status:?}");
        }
        _ => {
            let err = client
                .report(status.id)
                .expect_err("only Done jobs have reports");
            assert!(err.contains("409"), "unexpected error: {err}");
            assert!(status.error.is_none(), "{status:?}");
        }
    }
    // The terminal state is stable. Cell counters may still tick up —
    // the watchdog is cooperative, so a cell in flight when the deadline
    // fired finishes in the background — but only monotonically, and the
    // state/error verdict never changes.
    std::thread::sleep(Duration::from_millis(30));
    let again = client.status(status.id).expect("status re-read");
    assert_eq!(again.state, status.state, "terminal state flipped");
    assert_eq!(again.error, status.error, "terminal error changed");
    assert!(again.completed_cells >= status.completed_cells, "{again:?}");
    assert!(again.issued_cells >= status.issued_cells, "{again:?}");
    assert!(again.completed_cells <= again.total_cells, "{again:?}");
}

#[test]
fn delete_racing_completion_lands_done_or_cancelled_consistently() {
    let server = JobServer::start("127.0.0.1:0", 2).expect("server");
    let client = Client::new(server.addr().to_string());

    // Sweep the cancel across the job's lifetime: from "before the first
    // claim" to "after everything completed". Every landing spot must
    // produce a consistent terminal state; both outcomes must be
    // reachable across the sweep on any sane scheduler.
    let mut seen = Vec::new();
    for (i, delay_ms) in [0u64, 2, 5, 10, 20, 40, 80, 500].iter().enumerate() {
        let spec = cells_spec(&format!("race_{i}"), &["milc", "omnet", "bzip2"]);
        let id = client
            .submit(&serde_json::to_string(&spec).expect("spec serializes"))
            .expect("submit");
        std::thread::sleep(Duration::from_millis(*delay_ms));
        let at_delete = client.cancel(id).expect("cancel");
        assert!(
            at_delete.state != JobState::Failed,
            "cancel must never fail a job: {at_delete:?}"
        );
        let status = wait_terminal(&client, id);
        assert_consistent(&client, &status, &[JobState::Done, JobState::Cancelled]);
        seen.push(status.state);
    }
    // The 500ms delete lands long after a three-cell SmallTest job is
    // done; the 0ms delete beats the first claim.
    assert!(seen.contains(&JobState::Done), "sweep: {seen:?}");
    assert!(seen.contains(&JobState::Cancelled), "sweep: {seen:?}");
    let report = server.shutdown();
    assert_eq!(report.panicked_threads, 0);
}

#[test]
fn deadline_racing_the_final_cell_lands_done_or_expired_consistently() {
    let server = JobServer::start("127.0.0.1:0", 2).expect("server");
    let base = Client::new(server.addr().to_string());

    // Sweep the deadline across a one-cell job's runtime: a 0 ms deadline
    // is the moment of submission, so the first claim already sees it
    // passed; generous ones never fire, and the points between exercise
    // "deadline and final cell complete on the same tick" — the
    // watchdog's expire must finalize a finished job as Done, not clobber
    // it. (A 1 ms deadline is no sure loss: a release-build SmallTest cell
    // can finish inside it.)
    let mut seen = Vec::new();
    for (i, deadline_ms) in [0u64, 1, 5, 20, 60, 150, 2_000, 10_000].iter().enumerate() {
        let client = base.clone().with_deadline_ms(*deadline_ms);
        let spec = cells_spec(&format!("deadline_{i}"), &["milc"]);
        let id = client
            .submit(&serde_json::to_string(&spec).expect("spec serializes"))
            .expect("submit");
        let status = wait_terminal(&client, id);
        assert_consistent(
            &client,
            &status,
            &[JobState::Done, JobState::DeadlineExceeded],
        );
        seen.push(status.state);
    }
    assert_eq!(
        seen.last(),
        Some(&JobState::Done),
        "a 10s deadline never fires on a SmallTest cell: {seen:?}"
    );
    assert_eq!(
        seen.first(),
        Some(&JobState::DeadlineExceeded),
        "a 0ms deadline has passed before the first claim: {seen:?}"
    );
    let report = server.shutdown();
    assert_eq!(report.panicked_threads, 0);
}

#[test]
fn double_cancel_is_idempotent_even_when_concurrent() {
    let server = JobServer::start("127.0.0.1:0", 1).expect("server");
    let client = Client::new(server.addr().to_string());

    let spec = cells_spec(
        "double_cancel",
        &["calculix", "milc", "omnet", "bzip2", "xalancbmk", "ilbdc"],
    );
    let id = client
        .submit(&serde_json::to_string(&spec).expect("spec serializes"))
        .expect("submit");

    // Six concurrent DELETEs for the same job: every one must get a clean
    // status reply, and the job must settle exactly once.
    let hammers: Vec<_> = (0..6)
        .map(|_| {
            let client = client.clone();
            std::thread::spawn(move || client.cancel(id).expect("cancel replies with status"))
        })
        .collect();
    for hammer in hammers {
        let status = hammer.join().expect("cancel thread");
        assert_eq!(status.id, id);
    }
    let status = wait_terminal(&client, id);
    assert_consistent(&client, &status, &[JobState::Done, JobState::Cancelled]);

    // And cancelling a settled job is a no-op that still replies.
    let after = client.cancel(id).expect("cancel after terminal");
    assert_eq!(after.state, status.state, "late cancel changed the state");
    let report = server.shutdown();
    assert_eq!(report.panicked_threads, 0);
}
