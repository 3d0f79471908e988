//! Fleet end-to-end tests: a daemon with **zero local workers** and a
//! fleet of in-process `Runner`s produces reports byte-equal to the
//! in-process artifact — through fleet sizes, runner death, heartbeat
//! loss, and injected `lose_lease` faults — and a held poll hands out
//! work the moment it is submitted without stalling the rest of the
//! fleet protocol.

use cdcs_bench::exp::{BaseConfig, ExperimentSpec, GridSpec, MixEntry, SpecKind};
use cdcs_bench::specs;
use cdcs_serve::http;
use cdcs_serve::protocol::{
    FleetStatus, JobState, LeaseGrant, LeaseResult, PollReply, RegisterReply, RunnerHello,
};
use cdcs_serve::{Client, FleetConfig, JobServer, Runner, RunnerHandle, ServerConfig};
use cdcs_sim::runner::CellRun;
use cdcs_sim::Scheme;
use cdcs_workload::MixSpec;
use std::time::{Duration, Instant};

fn small(mut spec: ExperimentSpec) -> ExperimentSpec {
    spec.set_base(BaseConfig::SmallTest);
    spec.name = format!("{}_small", spec.name);
    spec
}

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

/// A one-cell job that simulates in a few milliseconds.
fn tiny_cell_spec(name: &str) -> ExperimentSpec {
    let mut spec = cells_spec(name, &["calculix"]);
    if let SpecKind::Grid(grid) = &mut spec.kind {
        grid.patches = vec![cdcs_sim::ConfigPatch::named("tiny")
            .with_epoch_cycles(60_000)
            .with_interval_cycles(15_000)
            .with_warmup_epochs(1)
            .with_measure_epochs(1)];
    }
    spec
}

/// The bytes `spec` produces in process — the fleet must match exactly.
fn expected_bytes(spec: &ExperimentSpec) -> String {
    let report = spec.run().expect("in-process run");
    serde_json::to_string_pretty(&report).expect("report serializes")
}

/// A fleet-only daemon: no local workers, fast lease/runner expiry so
/// failure tests run in test time, optional faults.
fn fleet_server(lease_ttl: Duration, runner_ttl: Duration, fault: &str) -> JobServer {
    let mut config = ServerConfig::new("127.0.0.1:0", 0);
    config.fleet = FleetConfig {
        lease_ttl,
        runner_ttl,
    };
    if !fault.is_empty() {
        config.faults =
            std::sync::Arc::new(cdcs_serve::faults::FaultPlan::parse(fault).expect("fault spec"));
    }
    JobServer::start_with(config).expect("server")
}

/// A fleet-only daemon at the default TTLs (a 500 ms poll hold).
fn default_fleet_server() -> JobServer {
    let defaults = FleetConfig::default();
    fleet_server(defaults.lease_ttl, defaults.runner_ttl, "")
}

/// Stops every runner at once: each may be parked in a held poll, so
/// stopping them one after another would wait out one hold per runner.
fn stop_all(runners: Vec<RunnerHandle>) {
    std::thread::scope(|scope| {
        for handle in runners {
            scope.spawn(move || handle.stop());
        }
    });
}

fn fleet_status(addr: &str) -> FleetStatus {
    let response = http::request(addr, "GET", "/fleet", &[], None).expect("GET /fleet");
    assert_eq!(response.status, 200);
    serde_json::from_str(&response.body).expect("fleet status parses")
}

// --- manual (raw-HTTP) runner actions, for the failure-mode tests ------

fn register(addr: &str, name: &str) -> RegisterReply {
    let body = serde_json::to_string(&RunnerHello { name: name.into() }).unwrap();
    let response =
        http::request(addr, "POST", "/fleet/runners", &[], Some(&body)).expect("register");
    assert_eq!(response.status, 201);
    serde_json::from_str(&response.body).expect("register reply parses")
}

fn poll(addr: &str, runner_id: u64) -> Option<LeaseGrant> {
    let path = format!("/fleet/runners/{runner_id}/poll");
    lease_of(&http::request(addr, "POST", &path, &[], Some("{}")).expect("poll"))
}

/// A raw poll on its own thread, answering `(response, when it came)` —
/// the shape the held-poll tests park before acting on the daemon.
fn park_poll(addr: &str, runner_id: u64) -> std::thread::JoinHandle<(http::Response, Instant)> {
    let addr = addr.to_string();
    let path = format!("/fleet/runners/{runner_id}/poll");
    std::thread::spawn(move || {
        let response = http::request(&addr, "POST", &path, &[], Some("{}")).expect("poll");
        (response, Instant::now())
    })
}

fn lease_of(response: &http::Response) -> Option<LeaseGrant> {
    assert_eq!(response.status, 200, "poll answered {response:?}");
    let reply: PollReply = serde_json::from_str(&response.body).expect("poll reply parses");
    reply.lease
}

fn heartbeat_status(addr: &str, lease_id: u64) -> u16 {
    let path = format!("/fleet/leases/{lease_id}/heartbeat");
    http::request(addr, "POST", &path, &[], Some("{}"))
        .expect("heartbeat")
        .status
}

/// Polls until a lease is granted (the job must already be submitted).
fn poll_until_lease(addr: &str, runner_id: u64) -> LeaseGrant {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(lease) = poll(addr, runner_id) {
            return lease;
        }
        assert!(Instant::now() < deadline, "no lease granted within 10s");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Waits (bounded) for job `id` to reach `Done`.
fn wait_done(client: &Client, id: u64) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let status = client.status(id).expect("status");
        if status.state == JobState::Done {
            return;
        }
        assert!(
            !status.state.is_terminal(),
            "job ended {:?}: {:?}",
            status.state,
            status.error
        );
        assert!(Instant::now() < deadline, "job not done within 60s");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn ten_runner_fleet_report_is_byte_equal_to_in_process() {
    let server = fleet_server(Duration::from_millis(2000), Duration::from_secs(20), "");
    let addr = server.addr().to_string();
    let runners: Vec<_> = (0..10)
        .map(|i| Runner::new(addr.clone(), format!("fleet-{i}")).spawn())
        .collect();
    let client = Client::new(addr.clone());

    let spec = small(specs::quickstart());
    let spec_json = serde_json::to_string(&spec).expect("spec serializes");
    let served = client
        .run(&spec_json, Duration::from_millis(25))
        .expect("fleet runs the job to a report");
    assert_eq!(
        served,
        expected_bytes(&spec),
        "10-runner fleet report diverges from the in-process artifact"
    );

    let status = fleet_status(&addr);
    assert_eq!(status.runners.len(), 10, "all runners registered");
    assert!(
        status.completed >= 1,
        "fleet completed the job's units: {status:?}"
    );
    assert_eq!(status.active_leases, 0, "nothing in flight after the job");
    let fleet_completed: usize = status.runners.iter().map(|r| r.completed).sum();
    assert_eq!(fleet_completed, status.completed);
    // The typed client binding (what `cdcs fleet` renders) sees the same
    // snapshot as the raw endpoint.
    let via_client = client.fleet().expect("Client::fleet");
    assert_eq!(via_client, status);

    stop_all(runners);
    let report = server.shutdown();
    assert_eq!(report.panicked_threads, 0);
}

#[test]
fn a_finished_cell_posts_without_waiting_out_a_heartbeat() {
    // Default lease TTL, so the runner heartbeats every `lease_ttl / 3`
    // (1.67 s): a runner that waited out its heartbeat sleep before
    // posting would take at least that long on any cell.
    let lease_ttl = FleetConfig::default().lease_ttl;
    let server = fleet_server(lease_ttl, Duration::from_secs(20), "");
    let addr = server.addr().to_string();
    let client = Client::new(addr.clone());
    let spec = tiny_cell_spec("quick_cell");
    // Submit first, so the runner's first poll is granted the cell.
    let id = client
        .submit(&serde_json::to_string(&spec).unwrap())
        .expect("submit");
    let started = Instant::now();
    let runner = Runner::new(addr.clone(), "quick").spawn();
    loop {
        let status = client.status(id).expect("status");
        if status.state == JobState::Done {
            break;
        }
        assert!(!status.state.is_terminal(), "job ended {:?}", status.state);
        assert!(
            started.elapsed() < lease_ttl,
            "cell not posted within one lease TTL"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < lease_ttl / 6,
        "a one-cell job took {elapsed:?}, not well inside the {:?} heartbeat period",
        lease_ttl / 3
    );
    assert_eq!(client.report(id).expect("report"), expected_bytes(&spec));
    runner.stop();
    server.shutdown();
}

#[test]
fn runner_killed_mid_job_recovers_via_requeue() {
    // Tight windows so revocation and runner expiry land in test time.
    let server = fleet_server(Duration::from_millis(300), Duration::from_millis(600), "");
    let addr = server.addr().to_string();
    let client = Client::new(addr.clone());

    // The victim registers before any other runner, so its poll is
    // granted the job's first cell; then it goes silent forever — never a
    // heartbeat, never a result: a kill -9 as the daemon sees it.
    let victim = register(&addr, "victim");
    let spec = cells_spec(
        "requeue_me",
        &["calculix", "milc", "omnet", "bzip2", "xalancbmk", "ilbdc"],
    );
    let id = client
        .submit(&serde_json::to_string(&spec).unwrap())
        .expect("submit");
    let lease = poll_until_lease(&addr, victim.runner_id);
    assert!(lease.cell.is_some(), "grid job leases cells");

    // Two healthy runners carry the job — including the victim's cell
    // once its lease (and then the victim itself) is revoked.
    let good: Vec<_> = (0..2)
        .map(|i| Runner::new(addr.clone(), format!("good-{i}")).spawn())
        .collect();
    wait_done(&client, id);

    let served = client.report(id).expect("report");
    assert_eq!(
        served,
        expected_bytes(&spec),
        "report after a runner kill diverges from the in-process artifact"
    );
    let status = fleet_status(&addr);
    assert!(
        status.requeued >= 1,
        "the victim's lease must have re-queued: {status:?}"
    );
    // The job can finish before the victim's runner TTL runs out (its
    // lease lapses sooner), so wait for the expiry instead of assuming
    // the job outlived it.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let status = fleet_status(&addr);
        if status.runners.iter().all(|r| !r.name.contains("victim")) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the silent victim must have been expired: {status:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    stop_all(good);
    server.shutdown();
}

#[test]
fn heartbeat_loss_revokes_the_lease_and_discards_the_late_result() {
    let server = fleet_server(Duration::from_millis(250), Duration::from_secs(20), "");
    let addr = server.addr().to_string();
    let client = Client::new(addr.clone());

    let me = register(&addr, "slowpoke");
    let spec = cells_spec("hb_loss", &["calculix", "milc"]);
    let id = client
        .submit(&serde_json::to_string(&spec).unwrap())
        .expect("submit");
    let lease = poll_until_lease(&addr, me.runner_id);

    // Beat once inside the window — still alive.
    assert_eq!(heartbeat_status(&addr, lease.lease_id), 200);
    // Go silent past the TTL: the watchdog revokes and re-queues.
    std::thread::sleep(Duration::from_millis(600));
    assert_eq!(
        heartbeat_status(&addr, lease.lease_id),
        410,
        "a lapsed lease answers Gone"
    );
    // The late result is stale and must be discarded.
    let late = LeaseResult {
        err: Some("late result from a revoked lease".into()),
        ..LeaseResult::default()
    };
    let response = http::request(
        &addr,
        "POST",
        &format!("/fleet/leases/{}/result", lease.lease_id),
        &[],
        Some(&serde_json::to_string(&late).unwrap()),
    )
    .expect("late result post");
    assert_eq!(response.status, 410, "stale results answer Gone");

    // A healthy runner finishes the job; the discarded fake "result"
    // must leave no trace in the bytes.
    let good = Runner::new(addr.clone(), "good").spawn();
    wait_done(&client, id);
    let served = client.report(id).expect("report");
    assert_eq!(served, expected_bytes(&spec));
    let status = fleet_status(&addr);
    assert!(status.requeued >= 1, "revocation counted: {status:?}");

    good.stop();
    server.shutdown();
}

#[test]
fn lose_lease_fault_requeues_and_report_stays_byte_equal() {
    let server = fleet_server(
        Duration::from_millis(2000),
        Duration::from_secs(20),
        "lose_lease:2",
    );
    let addr = server.addr().to_string();
    let runners: Vec<_> = (0..3)
        .map(|i| Runner::new(addr.clone(), format!("faulted-{i}")).spawn())
        .collect();
    let client = Client::new(addr.clone());

    let spec = cells_spec(
        "lose_lease",
        &["calculix", "milc", "omnet", "bzip2", "xalancbmk"],
    );
    let served = client
        .run(
            &serde_json::to_string(&spec).unwrap(),
            Duration::from_millis(25),
        )
        .expect("job survives the injected lost lease");
    assert_eq!(
        served,
        expected_bytes(&spec),
        "report under lose_lease diverges from the in-process artifact"
    );
    let status = fleet_status(&addr);
    assert!(
        status.requeued >= 1,
        "the doomed grant must re-queue cell 2: {status:?}"
    );

    stop_all(runners);
    let report = server.shutdown();
    assert_eq!(report.panicked_threads, 0);
}

// --- held polls -----------------------------------------------------------

#[test]
fn a_poll_parked_before_a_submit_is_granted_the_cell_at_once() {
    let server = default_fleet_server();
    let addr = server.addr().to_string();
    let me = register(&addr, "parked");
    let hold = Duration::from_millis(me.poll_ms);
    let parked = park_poll(&addr, me.runner_id);
    std::thread::sleep(hold / 5);
    let client = Client::new(addr.clone());
    client
        .submit(&serde_json::to_string(&tiny_cell_spec("parked")).unwrap())
        .expect("submit");
    let submitted = Instant::now();
    let (response, answered) = parked.join().expect("poll thread");
    let lease = lease_of(&response).expect("the parked poll is granted the new cell");
    assert!(lease.cell.is_some(), "grid job leases cells");
    let waited = answered.saturating_duration_since(submitted);
    assert!(
        waited < hold / 2,
        "the grant came {waited:?} after the submit, not well inside the {hold:?} hold"
    );
    server.shutdown();
}

#[test]
fn an_empty_poll_is_held_for_its_window_then_answers_null() {
    let server = default_fleet_server();
    let addr = server.addr().to_string();
    let me = register(&addr, "idle");
    assert_eq!(
        me.poll_ms, 500,
        "at the default TTLs the hold is a fifth of the lease TTL, capped at 500 ms"
    );
    let hold = Duration::from_millis(me.poll_ms);
    let started = Instant::now();
    assert!(poll(&addr, me.runner_id).is_none(), "no work was submitted");
    let held = started.elapsed();
    assert!(
        held >= hold / 2 && held <= hold + Duration::from_secs(2),
        "an empty poll answered after {held:?}, not about its {hold:?} hold"
    );
    server.shutdown();
}

#[test]
fn a_parked_poll_does_not_stall_heartbeats_or_results() {
    let server = default_fleet_server();
    let addr = server.addr().to_string();
    let client = Client::new(addr.clone());
    let busy = register(&addr, "busy");
    let idle = register(&addr, "idle");
    let hold = Duration::from_millis(idle.poll_ms);
    let spec = tiny_cell_spec("unstalled");
    let id = client
        .submit(&serde_json::to_string(&spec).unwrap())
        .expect("submit");
    let lease = poll_until_lease(&addr, busy.runner_id);
    let (config, cell) = (lease.config.as_ref(), lease.cell.as_ref());
    let result = LeaseResult {
        ok: Some(cdcs_sim::runner::run_cell(config.expect("config"), cell.expect("cell")).unwrap()),
        ..LeaseResult::default()
    };

    // The job's only cell is leased, so the idle runner's poll parks.
    let parked = park_poll(&addr, idle.runner_id);
    std::thread::sleep(hold / 10);
    let started = Instant::now();
    assert_eq!(heartbeat_status(&addr, lease.lease_id), 200);
    let beat = started.elapsed();
    let started = Instant::now();
    let response = http::request(
        &addr,
        "POST",
        &format!("/fleet/leases/{}/result", lease.lease_id),
        &[],
        Some(&serde_json::to_string(&result).unwrap()),
    )
    .expect("result post");
    assert_eq!(response.status, 200, "{response:?}");
    let posted = started.elapsed();
    for (what, took) in [("heartbeat", beat), ("result", posted)] {
        assert!(
            took < hold / 2,
            "a {what} took {took:?} behind a parked poll (hold {hold:?})"
        );
    }
    assert!(
        !parked.is_finished(),
        "the idle poll must still be parked while the busy runner reports"
    );
    let (response, _) = parked.join().expect("poll thread");
    assert!(lease_of(&response).is_none(), "nothing left to grant");
    wait_done(&client, id);
    assert_eq!(client.report(id).expect("report"), expected_bytes(&spec));
    server.shutdown();
}

#[test]
fn a_parked_poll_answers_503_at_once_when_the_daemon_stops() {
    let server = default_fleet_server();
    let addr = server.addr().to_string();
    let me = register(&addr, "parked");
    let hold = Duration::from_millis(me.poll_ms);
    let parked = park_poll(&addr, me.runner_id);
    std::thread::sleep(hold / 5);
    let stopping = Instant::now();
    server.shutdown();
    let (response, answered) = parked.join().expect("poll thread");
    assert_eq!(response.status, 503, "{response:?}");
    assert!(
        response.header("retry-after").is_some(),
        "runners back off on Retry-After: {response:?}"
    );
    let waited = answered.saturating_duration_since(stopping);
    assert!(
        waited < hold / 2,
        "the parked poll answered {waited:?} after the stop (hold {hold:?})"
    );
}

#[test]
fn a_poll_parked_when_its_runner_leaves_answers_404_and_requeues_its_claim() {
    let server = default_fleet_server();
    let addr = server.addr().to_string();
    let client = Client::new(addr.clone());
    let me = register(&addr, "leaver");
    let hold = Duration::from_millis(me.poll_ms);
    let parked = park_poll(&addr, me.runner_id);
    std::thread::sleep(hold / 5);
    let gone = http::request(
        &addr,
        "DELETE",
        &format!("/fleet/runners/{}", me.runner_id),
        &[],
        None,
    )
    .expect("deregister");
    assert_eq!(gone.status, 200);
    let spec = tiny_cell_spec("orphaned_claim");
    let id = client
        .submit(&serde_json::to_string(&spec).unwrap())
        .expect("submit");
    let (response, _) = parked.join().expect("poll thread");
    assert_eq!(
        response.status, 404,
        "a poll outliving its runner must re-register: {response:?}"
    );

    // The cell the orphaned poll claimed went back to the job: a fresh
    // runner finishes it, byte-equal.
    let good = Runner::new(addr.clone(), "good").spawn();
    wait_done(&client, id);
    assert_eq!(client.report(id).expect("report"), expected_bytes(&spec));
    let status = fleet_status(&addr);
    assert_eq!(status.active_leases, 0, "{status:?}");
    good.stop();
    server.shutdown();
}
