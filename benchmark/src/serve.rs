//! The daemon workloads (`serve-local`, `serve-fleet`): a closed loop of
//! two clients against a `cdcs-serve` process, with or without two
//! `cdcs-runner` processes, checked against in-process reports.

use crate::metrics::{self, Metrics, Outcome};
use crate::pass::{Counters, Pass};
use crate::stats::{median, percentile, Tally};
use crate::trace::{id_of, Tracer};
use crate::{digest, pass, replay, workloads, Args};
use cdcs_bench::exp::ExperimentSpec;
use cdcs_serve::client::Client;
use cdcs_serve::http;
use cdcs_serve::protocol::{FleetStatus, JobState, JobStatus, SubmitReply};
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Concurrent clients, each waiting for its job before submitting the next.
pub const CLIENTS: usize = 2;
/// Local workers of the `serve-local` daemon.
const LOCAL_WORKERS: usize = 2;
/// Daemon starts before and after the measured jobs; `setup_s` is the
/// median of all of them (split so they sample the host across the run).
const SETUP_REPS_BEFORE: usize = 20;
const SETUP_REPS_AFTER: usize = 20;
/// Jobs whose in-process reports form the committed digest.
const DIGEST_JOBS: u64 = 4;
/// The digest key of the job stream both served workloads share.
const DIGEST_KEY: &str = "serve";
/// Status requests the traced run times on an idle daemon to learn the
/// daemon CPU one status request costs.
const STATUS_CALIBRATION: usize = 2000;

/// The shape of a served workload.
#[derive(Debug, Clone, Copy)]
pub struct Served {
    /// `cdcs-runner` processes; 0 runs the daemon's own workers instead.
    pub runners: usize,
    /// Jobs per `--seconds`: the rate the reference machine (2 cores)
    /// sustains, so a run measures about that long.
    pub jobs_per_s: f64,
    /// Status poll interval of the clients (`cdcs run --poll-ms`).
    pub poll: Duration,
}

/// `serve-local`. A cell computes in ~13 ms, so at the 200 ms default of
/// `cdcs run` every job would wait for the same poll and the latency
/// would measure the sleep, not the daemon. The clients poll every 2 ms;
/// the traced run reports the status calls per job and their share of
/// the daemon's CPU.
pub const LOCAL: Served = Served {
    runners: 0,
    jobs_per_s: 60.0,
    poll: Duration::from_millis(2),
};

/// `serve-fleet`. A job takes ~2 s, so the clients poll at the 200 ms
/// default of `cdcs run`.
pub const FLEET: Served = Served {
    runners: 2,
    jobs_per_s: 0.8,
    poll: Duration::from_millis(200),
};

/// A client gives up after this many failures in a row (a dead daemon).
const MAX_CONSECUTIVE_FAILURES: usize = 20;

/// A running daemon and its runners; stopped (killed and reaped) on drop.
struct Service {
    daemon: Child,
    runners: Vec<Child>,
    addr: String,
    drain: Option<JoinHandle<()>>,
}

impl Service {
    /// Starts `cdcs-serve` on a free port (with `runners` runners) and
    /// waits until `/healthz` answers and every runner shows in `/fleet`.
    fn start(bin_dir: &Path, runners: usize) -> Result<(Service, f64), String> {
        let t = Instant::now();
        let workers = if runners == 0 { LOCAL_WORKERS } else { 0 };
        let mut daemon = Command::new(bin_dir.join("cdcs-serve"))
            .args(["--addr", "127.0.0.1:0", "--workers", &workers.to_string()])
            .env_remove("CDCS_FAULT")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", bin_dir.join("cdcs-serve").display()))?;
        let stderr = daemon.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        let drain = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if let Some(rest) = line.split("listening on http://").nth(1) {
                    let addr = rest.split_whitespace().next().unwrap_or("").to_string();
                    let _ = tx.send(addr);
                }
            }
        });
        let mut service = Service {
            daemon,
            runners: Vec::new(),
            addr: String::new(),
            drain: Some(drain),
        };
        service.addr = rx
            .recv_timeout(Duration::from_secs(30))
            .map_err(|_| "cdcs-serve did not report its address".to_string())?;
        wait_until(|| {
            http::request(&service.addr, "GET", "/healthz", &[], None)
                .is_ok_and(|r| r.status == 200)
        })?;
        for i in 0..runners {
            let child = Command::new(bin_dir.join("cdcs-runner"))
                .args(["--addr", &service.addr, "--name", &format!("r{i}")])
                .env_remove("CDCS_FAULT")
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .map_err(|e| format!("starting cdcs-runner: {e}"))?;
            service.runners.push(child);
        }
        if runners > 0 {
            wait_until(|| fleet(&service.addr).is_ok_and(|f| f.runners.len() >= runners))?;
        }
        Ok((service, t.elapsed().as_secs_f64()))
    }

    /// Peak resident set of the daemon plus its runners, in MB.
    fn peak_rss_mb(&self) -> f64 {
        std::iter::once(&self.daemon)
            .chain(&self.runners)
            .filter_map(|c| metrics::vm_hwm_mb(c.id()))
            .sum()
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        for child in self
            .runners
            .iter_mut()
            .chain(std::iter::once(&mut self.daemon))
        {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

fn wait_until(mut ready: impl FnMut() -> bool) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !ready() {
        if Instant::now() > deadline {
            return Err("the service did not become ready within 30 s".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(())
}

fn fleet(addr: &str) -> Result<FleetStatus, String> {
    let r = http::request(addr, "GET", "/fleet", &[], None)?;
    serde_json::from_str(&r.body).map_err(|e| format!("parsing /fleet: {e}"))
}

/// One served job, as the client saw it. Times are in ms.
#[derive(Debug, Default)]
struct Job {
    index: u64,
    /// The daemon's job id.
    id: u64,
    traced: bool,
    latency: f64,
    submit: f64,
    status: Vec<f64>,
    report_call: f64,
    queue_wait: f64,
    exec: f64,
    rejected: u64,
    report: Option<String>,
    error: Option<String>,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Serves job `index` through the shipped client, `Client::run`: the
/// `cdcs run` sequence of submit, status polls and report fetch.
fn serve_plain(addr: &str, seed: u64, index: u64, poll: Duration) -> Job {
    let mut job = Job {
        index,
        ..Job::default()
    };
    let body = match serde_json::to_string(&workloads::job(seed, index)) {
        Ok(b) => b,
        Err(e) => {
            job.error = Some(e.to_string());
            return job;
        }
    };
    let t0 = Instant::now();
    match Client::new(addr).run(&body, poll) {
        Ok(report) => {
            job.latency = ms_since(t0);
            job.report = Some(report);
        }
        Err(e) => job.error = Some(e),
    }
    job
}

/// The traced copy of [`serve_plain`]: the same sequence, with each
/// request timed and the status replies read for queue wait and
/// execution time.
fn serve_traced(addr: &str, seed: u64, index: u64, poll: Duration, tracer: &Tracer) -> Job {
    let mut job = Job {
        index,
        traced: true,
        ..Job::default()
    };
    let body = match serde_json::to_string(&workloads::job(seed, index)) {
        Ok(b) => b,
        Err(e) => {
            job.error = Some(e.to_string());
            return job;
        }
    };
    let root = tracer.open("client", "job", None, index);
    let parent = id_of(&root);
    let t0 = Instant::now();
    let id = loop {
        let t = Instant::now();
        let r = {
            let _s = tracer.open("serve", "POST /jobs", parent, index);
            http::request(addr, "POST", "/jobs", &[], Some(&body))
        };
        job.submit = ms_since(t);
        match r {
            Ok(r) if r.status == 429 => {
                job.rejected += 1;
                let wait = r
                    .header("retry-after")
                    .and_then(|v| v.parse::<f64>().ok())
                    .unwrap_or(0.01);
                std::thread::sleep(Duration::from_secs_f64(wait));
            }
            Ok(r) if (200..300).contains(&r.status) => {
                match serde_json::from_str::<SubmitReply>(&r.body) {
                    Ok(reply) => {
                        job.id = reply.id;
                        break reply.id;
                    }
                    Err(e) => {
                        job.error = Some(format!("submit reply: {e}"));
                        return job;
                    }
                }
            }
            Ok(r) => {
                job.error = Some(format!("submit: HTTP {}", r.status));
                return job;
            }
            Err(e) => {
                job.error = Some(format!("submit: {e}"));
                return job;
            }
        }
    };
    let mut issued: Option<Instant> = None;
    let state = loop {
        let t = Instant::now();
        let r = {
            let _s = tracer.open("serve", "GET /jobs/<id>", parent, index);
            http::request(addr, "GET", &format!("/jobs/{id}"), &[], None)
        };
        job.status.push(ms_since(t));
        let status: JobStatus = match r.map(|r| serde_json::from_str(&r.body)) {
            Ok(Ok(s)) => s,
            Ok(Err(e)) => {
                job.error = Some(format!("status reply: {e}"));
                return job;
            }
            Err(e) => {
                job.error = Some(format!("status: {e}"));
                return job;
            }
        };
        if status.issued_cells > 0 && issued.is_none() {
            let now = Instant::now();
            job.queue_wait = now.duration_since(t0).as_secs_f64() * 1e3;
            issued = Some(now);
        }
        if status.state.is_terminal() {
            break status;
        }
        std::thread::sleep(poll);
    };
    job.exec = issued.map_or(0.0, ms_since);
    if state.state != JobState::Done {
        job.error = Some(format!(
            "job ended {:?}: {}",
            state.state,
            state.error.unwrap_or_default()
        ));
        return job;
    }
    let t = Instant::now();
    let r = {
        let _s = tracer.open("serve", "GET /jobs/<id>/report", parent, index);
        http::request(addr, "GET", &format!("/jobs/{id}/report"), &[], None)
    };
    job.report_call = ms_since(t);
    match r {
        Ok(r) if r.status == 200 => {
            job.latency = ms_since(t0);
            job.report = Some(r.body);
        }
        Ok(r) => job.error = Some(format!("report: HTTP {}", r.status)),
        Err(e) => job.error = Some(format!("report: {e}")),
    }
    job
}

/// The closed loop: `CLIENTS` threads take the next job index until the
/// stream reaches `end` and serve it with `serve`. Returns the jobs in
/// index order and the seconds from the first submit to the last report.
fn closed_loop(next: &AtomicU64, end: u64, serve: impl Fn(u64) -> Job + Sync) -> (Vec<Job>, f64) {
    let t0 = Instant::now();
    let mut jobs: Vec<Job> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let serve = &serve;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut failures_in_row = 0;
                    while failures_in_row < MAX_CONSECUTIVE_FAILURES {
                        // Claim the next index only while it is below
                        // `end`, so a traced second loop starts where the
                        // first one stopped.
                        let Ok(index) =
                            next.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |i| {
                                (i < end).then_some(i + 1)
                            })
                        else {
                            break;
                        };
                        let job = serve(index);
                        failures_in_row = if job.error.is_some() {
                            failures_in_row + 1
                        } else {
                            0
                        };
                        out.push(job);
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    jobs.sort_by_key(|j| j.index);
    (jobs, t0.elapsed().as_secs_f64())
}

/// The in-process reports of the served jobs, for the output checks.
struct Reference {
    /// Pretty-printed report per spec (`None` when it failed).
    reports: Vec<Option<String>>,
    /// Cells over all specs, and their work counters.
    cells: usize,
    counters: Counters,
    failures: Vec<String>,
    /// The instrumented pass, when traced: its cell times give
    /// `serve.overhead_ms_p50` and the `bench`/`sim` layer metrics.
    traced: Option<Pass>,
}

/// Runs `specs` in process. Untraced, each goes through
/// `ExperimentSpec::run`, on `CLIENTS` threads; traced, all go through
/// one instrumented pass.
fn reference(specs: &[ExperimentSpec], indices: &[u64], tracer: &Tracer) -> Reference {
    if tracer.on() {
        let mut p = pass::run(specs, indices, tracer);
        return Reference {
            reports: std::mem::take(&mut p.reports),
            cells: p.cells.len(),
            counters: p.counters,
            failures: p.failures.clone(),
            traced: Some(p),
        };
    }
    let next = AtomicU64::new(0);
    let mut runs: Vec<(usize, pass::Plain)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::SeqCst) as usize;
                        let Some(spec) = specs.get(k) else {
                            return out;
                        };
                        out.push((k, pass::plain(spec)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    runs.sort_by_key(|(k, _)| *k);
    let mut r = Reference {
        reports: Vec::new(),
        cells: 0,
        counters: Counters::default(),
        failures: Vec::new(),
        traced: None,
    };
    for (k, p) in runs {
        r.cells += p.cells;
        r.counters.merge(&p.counters);
        match p.report {
            Ok(json) => r.reports.push(Some(json)),
            Err(e) => {
                r.failures.push(format!("{}: {e}", specs[k].name));
                r.reports.push(None);
            }
        }
    }
    r
}

/// Daemon CPU per status request, in clock ticks: `STATUS_CALIBRATION`
/// requests for job `id` one after another on an otherwise idle daemon.
fn status_cpu_ticks(addr: &str, pid: u32, id: u64) -> Option<f64> {
    let path = format!("/jobs/{id}");
    let before = metrics::cpu_ticks(pid)?;
    for _ in 0..STATUS_CALIBRATION {
        http::request(addr, "GET", &path, &[], None).ok()?;
    }
    let after = metrics::cpu_ticks(pid)?;
    Some((after - before) as f64 / STATUS_CALIBRATION as f64)
}

pub fn run(name: &str, shape: Served, args: &Args) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut service = None;
    for _ in 0..SETUP_REPS_BEFORE {
        drop(service.take());
        let (s, secs) = Service::start(&args.bin_dir, shape.runners)?;
        setups.push(secs);
        service = Some(s);
    }
    let service = service.expect("at least one start");

    // A fixed amount of work, sized to take about `seconds` on the
    // reference machine: the wall time then measures the program, and
    // the daemon's memory (it keeps every finished job) does not grow
    // with its speed.
    let total = ((args.seconds * shape.jobs_per_s).round() as u64).max(2);
    let tracer = Tracer::new(args.trace);
    let next = AtomicU64::new(0);
    let addr = service.addr.as_str();
    let plain = |index| serve_plain(addr, args.seed, index, shape.poll);
    // Daemon CPU ticks over the traced half, and per status request.
    let mut daemon_cpu = None;
    let (mut jobs, wall) = if args.trace {
        // End-to-end figures come from the untraced half only.
        let (mut a, wa) = closed_loop(&next, total / 2, plain);
        let pid = service.daemon.id();
        let before = metrics::cpu_ticks(pid);
        let (b, _) = closed_loop(&next, total, |index| {
            serve_traced(addr, args.seed, index, shape.poll, &tracer)
        });
        let spent = metrics::cpu_ticks(pid).zip(before).map(|(x, y)| x - y);
        let per_status = b
            .iter()
            .find(|j| j.id > 0)
            .and_then(|j| status_cpu_ticks(addr, pid, j.id));
        daemon_cpu = spent.zip(per_status);
        a.extend(b);
        (a, wa)
    } else {
        closed_loop(&next, total, plain)
    };
    jobs.sort_by_key(|j| j.index);
    let rss = service.peak_rss_mb();
    let fleet_status = fleet(&service.addr).unwrap_or_default();
    drop(service);
    for _ in 0..SETUP_REPS_AFTER {
        setups.push(Service::start(&args.bin_dir, shape.runners)?.1);
    }

    // Output checks: every job ends Done with a report byte-equal to the
    // in-process report of the same spec; the first jobs' in-process
    // reports match the committed digest for this seed.
    let mut indices: Vec<u64> = jobs.iter().map(|j| j.index).chain(0..DIGEST_JOBS).collect();
    indices.sort_unstable();
    indices.dedup();
    let specs: Vec<ExperimentSpec> = indices
        .iter()
        .map(|&i| workloads::job(args.seed, i))
        .collect();
    let reference = reference(&specs, &indices, &tracer);
    let by_index = |i: u64| indices.binary_search(&i).ok();

    let mut tally = Tally::default();
    let mut failures: Vec<String> = reference.failures.clone();
    let mut overhead = Vec::new();
    for job in &jobs {
        let k = by_index(job.index).expect("every served job is replayed");
        let expected = reference.reports[k].as_deref();
        let ok = match (&job.error, &job.report, expected) {
            (None, Some(got), Some(want)) if got == want => true,
            (Some(e), _, _) => {
                failures.push(format!("job {}: {e}", job.index));
                false
            }
            _ => {
                failures.push(format!(
                    "job {}: report differs from the in-process one",
                    job.index
                ));
                false
            }
        };
        tally.record(ok);
        if let (true, true, Some(p)) = (ok, job.traced, &reference.traced) {
            for c in p.cells.iter().filter(|c| c.spec == k) {
                overhead.push(job.exec - (c.done - c.claim) * 1e3);
            }
        }
    }
    let first: Vec<&str> = (0..DIGEST_JOBS)
        .filter_map(|i| by_index(i).and_then(|k| reference.reports[k].as_deref()))
        .collect();
    let digest = digest::fold(first.iter().copied());
    let check = digest::check(DIGEST_KEY, args.seed, digest);
    let complete = first.len() == DIGEST_JOBS as usize;
    tally.record(complete && check.ok());
    if !(complete && check.ok()) {
        failures.push(format!(
            "report digest {digest:016x} of the first jobs: {check}"
        ));
    }
    digest::report(DIGEST_KEY, args.seed, digest, check);

    let done: Vec<&Job> = jobs.iter().filter(|j| j.error.is_none()).collect();
    let plain: Vec<&Job> = done.iter().copied().filter(|j| !j.traced).collect();
    let lat: Vec<f64> = plain.iter().map(|j| j.latency).collect();
    let mut m = Metrics::default();
    m.set("wall_s", wall);
    m.set("cells_per_s", plain.len() as f64 / wall);
    let accesses_per_job = reference.counters.accesses as f64 / reference.cells.max(1) as f64;
    m.set(
        "sim_accesses_per_s",
        accesses_per_job * plain.len() as f64 / wall,
    );
    m.set("job_latency_p50_ms", percentile(&lat, 50.0));
    m.set("job_latency_p90_ms", percentile(&lat, 90.0));
    m.set("setup_s", median(&setups));
    m.set("peak_rss_mb", rss);
    m.note("jobs", jobs.len() as f64);
    m.note("job_latency_samples", lat.len() as f64);
    metrics::note_tail(&mut m, lat.len());
    m.note("repeated_job_frac", 0.0);
    m.note("status_poll_ms", shape.poll.as_secs_f64() * 1e3);

    if let Some(passed) = &reference.traced {
        let traced: Vec<&Job> = done.iter().copied().filter(|j| j.traced).collect();
        let report_bytes = median(
            &done
                .iter()
                .filter_map(|j| j.report.as_ref().map(|r| r.len() as f64))
                .collect::<Vec<_>>(),
        );
        let dir = crate::out_dir().join("artifacts");
        let report = reference.reports.iter().flatten().next();
        let written = pass::time_artifact_write(report.map_or("", String::as_str), &dir, &tracer);
        tally.record(written.is_ok());
        let write_ms = written.map(|s| s * 1e3).unwrap_or_else(|e| {
            failures.push(e);
            0.0
        });
        let passes = std::slice::from_ref(passed);
        metrics::layer_bench(&mut m, passes, report_bytes as usize, write_ms);
        metrics::layer_session(&mut m, passes);
        metrics::layer_sim(&mut m, passes, &reference.counters);
        let base = cdcs_bench::exp::BaseConfig::SmallTest.config();
        let mixes: Vec<_> = specs.iter().take(8).flat_map(workloads::mixes).collect();
        metrics::layer_replay(&mut m, &replay::run(&base, &mixes, &tracer)?);
        let p50 =
            |f: &dyn Fn(&Job) -> f64| median(&traced.iter().map(|j| f(j)).collect::<Vec<_>>());
        m.set("serve.submit_ms_p50", p50(&|j| j.submit));
        m.set(
            "serve.status_ms_p50",
            median(
                &traced
                    .iter()
                    .flat_map(|j| j.status.iter().copied())
                    .collect::<Vec<_>>(),
            ),
        );
        let status_calls: usize = traced.iter().map(|j| j.status.len()).sum();
        m.set(
            "serve.status_calls_per_job",
            status_calls as f64 / traced.len().max(1) as f64,
        );
        // The share of the daemon's CPU over the traced jobs that their
        // status requests took, at the calibrated cost per request.
        let share = daemon_cpu
            .filter(|&(spent, _)| spent > 0)
            .map_or(0.0, |(spent, per)| {
                (status_calls as f64 * per / spent as f64).min(1.0)
            });
        m.set("serve.status_cpu_share", share);
        m.set("serve.report_ms_p50", p50(&|j| j.report_call));
        m.set("serve.queue_wait_ms_p50", p50(&|j| j.queue_wait));
        m.set("serve.exec_ms_p50", p50(&|j| j.exec));
        m.set("serve.overhead_ms_p50", median(&overhead));
        m.set(
            "serve.rejected_429",
            traced.iter().map(|j| j.rejected as f64).sum(),
        );
        m.set("serve.fleet.completed", fleet_status.completed as f64);
        m.set("serve.fleet.requeued", fleet_status.requeued as f64);
        let per_runner: Vec<usize> = fleet_status.runners.iter().map(|r| r.completed).collect();
        let skew = match (per_runner.iter().max(), per_runner.iter().min()) {
            (Some(&max), Some(&min)) => max as f64 / min.max(1) as f64,
            _ => 0.0,
        };
        m.set("serve.fleet.runner_skew", skew);
        let traced_lat: Vec<f64> = traced.iter().map(|j| j.latency).collect();
        m.set(
            "trace.overhead_pct",
            (median(&traced_lat) / median(&lat) - 1.0) * 100.0,
        );
        metrics::layer_self_times(&mut m, &tracer, name, args.seed)?;
    }
    Ok(Outcome {
        tally,
        failures,
        metrics: m,
    })
}
