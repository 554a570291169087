//! End-to-end test of the `fascia serve --admin-addr` telemetry plane:
//! a real daemon process, scraped over plain TCP with a hand-rolled
//! HTTP/1.1 GET (the same thing `curl` sends), then drained via SIGTERM.

#![cfg(unix)]

use fascia_svc::JobSpec;
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn fascia() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fascia"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("fascia-admin-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn submit(spool: &Path, spec: &JobSpec) {
    let jobs = spool.join("jobs");
    std::fs::create_dir_all(&jobs).unwrap();
    std::fs::write(jobs.join(format!("{}.json", spec.id)), spec.to_json()).unwrap();
}

/// Issues a plain HTTP/1.1 GET and returns (status, body), reading to EOF
/// (the server always answers `Connection: close`).
fn http_get(addr: &str, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: e2e\r\n\r\n").as_bytes())
        .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let status: u16 = raw
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Polls for a condition with a deadline, so the test tracks the daemon's
/// real pace instead of sleeping a fixed worst case.
fn wait_for(what: &str, deadline: Duration, mut ready: impl FnMut() -> bool) {
    let t0 = Instant::now();
    while !ready() {
        assert!(t0.elapsed() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn daemon_admin_endpoint_serves_live_telemetry_and_drains_on_sigterm() {
    let spool = tmp_dir("daemon");
    for i in 0..2 {
        let mut spec = JobSpec::new(&format!("live-{i}"), "circuit", "path4");
        spec.iterations = 10;
        spec.seed = 7 + i;
        submit(&spool, &spec);
    }

    // Port 0: the kernel picks a free port; the daemon publishes the
    // bound address in <spool>/admin.addr for exactly this handshake.
    let child = fascia()
        .args(["serve", "--admin-addr", "127.0.0.1:0", "--spool"])
        .arg(&spool)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();

    let addr_file = spool.join("admin.addr");
    wait_for("admin.addr", Duration::from_secs(10), || addr_file.exists());
    let addr = std::fs::read_to_string(&addr_file)
        .unwrap()
        .trim()
        .to_string();

    // The endpoint is live before any job finishes: eager metric
    // registration means a scrape never 404s on a known series.
    let (status, health) = http_get(&addr, "/healthz");
    assert_eq!(status, 200, "{health}");
    assert!(health.contains("\"status\":\"ok\""), "{health}");

    wait_for("both results", Duration::from_secs(30), || {
        (0..2).all(|i| spool.join(format!("results/live-{i}.json")).exists())
    });

    let (status, metrics) = http_get(&addr, "/metrics");
    assert_eq!(status, 200);
    for series in [
        "svc_queue_depth",
        "svc_jobs_completed 2",
        "svc_queue_wait_ms",
        "svc_job_e2e_ms",
    ] {
        assert!(metrics.contains(series), "missing {series} in:\n{metrics}");
    }

    let (status, jobs) = http_get(&addr, "/jobs");
    assert_eq!(status, 200);
    assert!(jobs.contains("\"schema\":\"fascia-jobs/1\""), "{jobs}");
    assert!(jobs.contains("\"id\":\"live-0\""), "{jobs}");

    // Acceptance: the served timeline is exactly the fascia-events/1 log,
    // line for line.
    let (status, timeline) = http_get(&addr, "/jobs/live-1");
    assert_eq!(status, 200);
    let log = std::fs::read_to_string(spool.join("events/events.jsonl")).unwrap();
    let mine: Vec<&str> = log
        .lines()
        .filter(|l| l.contains("\"job\":\"live-1\""))
        .collect();
    assert!(mine.len() >= 4, "expected a full lifecycle, got {mine:?}");
    for line in &mine {
        assert!(
            timeline.contains(line),
            "timeline missing {line}\n{timeline}"
        );
    }

    // SIGTERM drains: the daemon stops, removes admin.addr, and prints
    // its summary on the way out.
    Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("\"schema\":\"fascia-svc-report/1\""),
        "{stdout}"
    );
    assert!(
        !addr_file.exists(),
        "admin.addr must be cleaned up on drain"
    );
    assert!(
        TcpStream::connect(&addr).is_err(),
        "admin listener must be closed after shutdown"
    );
    let _ = std::fs::remove_dir_all(&spool);
}
