//! The HTTP front end is total over hostile bytes: every malformed or
//! oversized request gets a 4xx without wedging its connection thread,
//! allocating unbounded memory, or hurting the daemon's health — pinned
//! table-driven over raw byte payloads written straight to the socket.

use cdcs_serve::JobServer;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};

/// Writes `payload` raw, half-closes, and returns the status code of
/// whatever came back (0 when the server sent nothing).
fn raw_status(addr: &str, payload: &[u8]) -> u16 {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(payload).expect("send payload");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut response = Vec::new();
    let _ = stream.read_to_end(&mut response);
    let response = String::from_utf8_lossy(&response);
    response
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .unwrap_or(0)
}

fn healthz_ok(addr: &str) {
    let response =
        cdcs_serve::http::request(addr, "GET", "/healthz", &[], None).expect("healthz reachable");
    assert_eq!(response.status, 200, "daemon no longer healthy");
}

#[test]
fn malformed_requests_get_4xx_without_wedging_the_daemon() {
    let server = JobServer::start("127.0.0.1:0", 1).expect("server");
    let addr = server.addr().to_string();

    let overlong_target = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(9_000));
    let many_headers = format!(
        "GET /healthz HTTP/1.1\r\n{}\r\n",
        "X-Pad: 1\r\n".repeat(150)
    );
    let cases: Vec<(&str, Vec<u8>, u16)> = vec![
        ("empty request", b"".to_vec(), 400),
        ("garbage start line", b"GARBAGE\r\n\r\n".to_vec(), 400),
        ("binary junk", b"\x00\x01\x02\xff\xfe\r\n\r\n".to_vec(), 400),
        (
            "lowercase method",
            b"get /jobs HTTP/1.1\r\n\r\n".to_vec(),
            400,
        ),
        (
            "header without colon",
            b"GET /jobs HTTP/1.1\r\nNotAHeader\r\n\r\n".to_vec(),
            400,
        ),
        (
            "unparsable content-length",
            b"POST /jobs HTTP/1.1\r\nContent-Length: banana\r\n\r\n".to_vec(),
            400,
        ),
        (
            "gigabyte content-length is refused before allocation",
            b"POST /jobs HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n".to_vec(),
            413,
        ),
        (
            "one past the body cap",
            format!(
                "POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                cdcs_serve::http::MAX_BODY + 1
            )
            .into_bytes(),
            413,
        ),
        (
            "truncated body",
            b"POST /jobs HTTP/1.1\r\nContent-Length: 100\r\n\r\nshort".to_vec(),
            400,
        ),
        (
            "unknown method on a jobs route",
            b"BREW /jobs HTTP/1.1\r\n\r\n".to_vec(),
            405,
        ),
        ("overlong start line", overlong_target.into_bytes(), 400),
        ("too many headers", many_headers.into_bytes(), 400),
    ];

    for (name, payload, expected) in cases {
        let status = raw_status(&addr, &payload);
        assert_eq!(status, expected, "case {name:?}");
        // The connection thread died cleanly; the daemon still serves.
        healthz_ok(&addr);
    }

    // And after the whole gauntlet, real work still lands.
    let spec = serde_json::to_string(&{
        let mut spec = cdcs_bench::specs::quickstart();
        spec.set_base(cdcs_bench::exp::BaseConfig::SmallTest);
        spec.name = "after_gauntlet".into();
        spec
    })
    .expect("spec serializes");
    let client = cdcs_serve::Client::new(addr);
    let id = client.submit(&spec).expect("daemon still accepts jobs");
    assert_eq!(id, 0, "the gauntlet admitted no jobs");
    let report = server.shutdown_drain();
    assert_eq!(report.panicked_threads, 0);
    assert_eq!(
        report.jobs[0].state,
        cdcs_serve::protocol::JobState::Done,
        "drain finished the queued job: {:?}",
        report.jobs
    );
}

#[test]
fn body_exactly_at_the_cap_is_parsed_not_refused() {
    // Regression guard for an off-by-one at the 413 boundary: a body of
    // exactly MAX_BODY bytes must reach the JSON parser (and fail there
    // as a bad spec, 400 — not 413).
    let server = JobServer::start("127.0.0.1:0", 1).expect("server");
    let addr = server.addr().to_string();
    let body = vec![b'x'; cdcs_serve::http::MAX_BODY];
    let mut payload = format!(
        "POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    payload.extend_from_slice(&body);
    assert_eq!(raw_status(&addr, &payload), 400, "parsed, rejected as spec");
    healthz_ok(&addr);
    server.shutdown();
}

#[test]
fn deeply_nested_json_gets_400_and_the_daemon_survives() {
    // ~3 MB of `[` under the body cap, behind an unknown key the spec
    // reader skips: unbounded recursion here would overflow the
    // connection thread's stack and abort the whole process.
    let server = JobServer::start("127.0.0.1:0", 1).expect("server");
    let addr = server.addr().to_string();
    let body = format!("{{\"junk\":{}", "[".repeat(3_000_000));
    assert!(body.len() < cdcs_serve::http::MAX_BODY);
    let mut payload = format!(
        "POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    payload.extend_from_slice(body.as_bytes());
    assert_eq!(raw_status(&addr, &payload), 400, "rejected as a bad spec");
    healthz_ok(&addr);
    server.shutdown();
}
