//! Fleet end-to-end tests: a daemon with **zero local workers** and a
//! fleet of in-process `Runner`s produces reports byte-equal to the
//! in-process artifact — through fleet sizes, runner death, heartbeat
//! loss, and injected `lose_lease` faults — and the consistent-hash ring
//! rebalances by moving only the keys that must move (property-tested).

use cdcs_bench::exp::{BaseConfig, ExperimentSpec, GridSpec, MixEntry, SpecKind};
use cdcs_bench::specs;
use cdcs_serve::http;
use cdcs_serve::protocol::{
    FleetStatus, JobState, LeaseGrant, LeaseResult, PollReply, RegisterReply, RunnerHello,
};
use cdcs_serve::ring::HashRing;
use cdcs_serve::{Client, FleetConfig, JobServer, Runner, ServerConfig};
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
        ..FleetConfig::default()
    };
    if !fault.is_empty() {
        config.faults =
            std::sync::Arc::new(cdcs_serve::faults::FaultPlan::parse(fault).expect("fault spec"));
    }
    JobServer::start_with(config).expect("server")
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
    let response = http::request(addr, "POST", &path, &[], Some("{}")).expect("poll");
    assert_eq!(response.status, 200);
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

    for handle in runners {
        handle.stop();
    }
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
    let mut spec = cells_spec("quick_cell", &["calculix"]);
    if let SpecKind::Grid(grid) = &mut spec.kind {
        grid.patches = vec![cdcs_sim::ConfigPatch::named("tiny")
            .with_epoch_cycles(60_000)
            .with_interval_cycles(15_000)
            .with_warmup_epochs(1)
            .with_measure_epochs(1)];
    }
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

    // The victim registers first (so the ring routes some cells to it),
    // grabs a lease, and then goes silent forever — never a heartbeat,
    // never a result: a kill -9 as the daemon sees it.
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
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let status = client.status(id).expect("status");
        if status.state == JobState::Done {
            break;
        }
        assert!(
            !status.state.is_terminal(),
            "job ended {:?}: {:?}",
            status.state,
            status.error
        );
        assert!(Instant::now() < deadline, "job not done within 60s");
        std::thread::sleep(Duration::from_millis(25));
    }

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
    assert!(
        status.runners.iter().all(|r| !r.name.contains("victim")),
        "the silent victim must have been expired: {status:?}"
    );

    for handle in good {
        handle.stop();
    }
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
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let status = client.status(id).expect("status");
        if status.state == JobState::Done {
            break;
        }
        assert!(
            !status.state.is_terminal(),
            "job ended {:?}: {:?}",
            status.state,
            status.error
        );
        assert!(Instant::now() < deadline, "job not done within 60s");
        std::thread::sleep(Duration::from_millis(25));
    }
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

    for handle in runners {
        handle.stop();
    }
    let report = server.shutdown();
    assert_eq!(report.panicked_threads, 0);
}

// --- ring rebalance properties ----------------------------------------

mod ring_props {
    use super::HashRing;
    use proptest::prelude::*;

    const VNODES: usize = 16;

    fn build(ids: &[u64], seed: u64) -> HashRing {
        let mut ring = HashRing::new(VNODES, seed);
        for &id in ids {
            ring.add(id);
        }
        ring
    }

    /// 1..=8 distinct member ids, sorted (the vendored proptest has no
    /// set strategy — dedupe a vec).
    fn members() -> impl Strategy<Value = Vec<u64>> {
        prop::collection::vec(0u64..500, 1..8).prop_map(|mut v| {
            v.sort_unstable();
            v.dedup();
            v
        })
    }

    proptest! {
        /// Adding a node moves a key only if it moves *to* that node;
        /// removing it restores the exact previous routing. This is the
        /// consistent-hashing contract: membership changes touch only
        /// the joining/leaving node's key range.
        #[test]
        fn rebalance_moves_only_the_joining_nodes_range(
            ids in members(),
            seed in 0u64..u64::MAX,
            newcomer in 1000u64..2000,
        ) {
            let mut ring = build(&ids, seed);
            let keys: Vec<u64> = (0..512).collect();
            let before: Vec<u64> = keys.iter().map(|&k| ring.route(k).unwrap()).collect();

            ring.add(newcomer);
            for (&key, &was) in keys.iter().zip(&before) {
                let now = ring.route(key).unwrap();
                prop_assert!(
                    now == was || now == newcomer,
                    "key {key} moved {was} -> {now}, not to the newcomer {newcomer}"
                );
            }

            ring.remove(newcomer);
            for (&key, &was) in keys.iter().zip(&before) {
                prop_assert_eq!(ring.route(key).unwrap(), was, "key {key} did not move back");
            }
        }

        /// Routing is a pure function of the membership *set* — never of
        /// insertion order.
        #[test]
        fn routing_ignores_insertion_order(
            ids in members(),
            seed in 0u64..u64::MAX,
        ) {
            let forward: Vec<u64> = ids.clone();
            let mut reversed = forward.clone();
            reversed.reverse();
            let a = build(&forward, seed);
            let b = build(&reversed, seed);
            for key in 0..512u64 {
                prop_assert_eq!(a.route(key), b.route(key), "key {}", key);
            }
        }

        /// Removing a node moves only the keys that node owned.
        #[test]
        fn removal_moves_only_the_leavers_range(
            ids in members(),
            seed in 0u64..u64::MAX,
        ) {
            prop_assume!(ids.len() >= 2);
            let leaver = ids[0];
            let mut ring = build(&ids, seed);
            let keys: Vec<u64> = (0..512).collect();
            let before: Vec<u64> = keys.iter().map(|&k| ring.route(k).unwrap()).collect();
            ring.remove(leaver);
            for (&key, &was) in keys.iter().zip(&before) {
                let now = ring.route(key).unwrap();
                if was != leaver {
                    prop_assert_eq!(now, was, "key {} was not the leaver's but moved", key);
                } else {
                    prop_assert_ne!(now, leaver, "key {} still routes to the leaver", key);
                }
            }
        }
    }
}
