//! Admin endpoint integration tests: real sockets against a real spool.
//!
//! Covers the ISSUE 9 satellite hardening list — oversized request
//! lines, unknown paths, slow-loris read deadlines, non-GET methods —
//! plus the acceptance criteria: `/jobs/<id>` serving the verbatim
//! `fascia-events/1` lines, and a chaos soak whose byte-for-byte replay
//! is unaffected by concurrent scraping.

use fascia_core::chaos::ChaosSpec;
use fascia_svc::supervisor::SupervisorConfig;
use fascia_svc::{
    AdminConfig, AdminServer, AdminState, BackoffPolicy, JobSpec, MonotonicClock, Service,
    ServiceConfig,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

fn tmp_dir(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("fascia-admin-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn graph_file(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "fascia-admin-graph-{tag}-{}.txt",
        std::process::id()
    ));
    let mut text = String::new();
    for v in 0..40u32 {
        text.push_str(&format!("{} {}\n", v, (v + 1) % 40));
        text.push_str(&format!("{} {}\n", v, (v + 7) % 40));
    }
    std::fs::write(&path, text).unwrap();
    path
}

fn fast_supervision() -> SupervisorConfig {
    SupervisorConfig {
        backoff: BackoffPolicy {
            base: Duration::from_millis(5),
            cap: Duration::from_millis(40),
            ..BackoffPolicy::default()
        },
        poll: Duration::from_millis(5),
        ..SupervisorConfig::default()
    }
}

/// Minimal HTTP client: one GET, reads to EOF (the server always sends
/// `Connection: close`), returns `(status, body)`.
fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    parse_response(&response)
}

/// Like [`http_get`] but sends raw bytes and tolerates the server
/// resetting the connection mid-exchange (the hardening paths respond
/// and close while the client may still be writing).
fn raw_exchange(addr: SocketAddr, payload: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    let _ = stream.write_all(payload);
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    }
    parse_response(&String::from_utf8_lossy(&buf))
}

fn parse_response(response: &str) -> (u16, String) {
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

#[test]
fn endpoints_serve_health_metrics_jobs_and_timelines() {
    let graph = graph_file("routes");
    let root = tmp_dir("routes");
    let svc = Service::open(
        &root,
        ServiceConfig {
            supervisor: fast_supervision(),
            once: true,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    for i in 0..2 {
        let mut spec = JobSpec::new(&format!("adm-{i}"), &graph.to_string_lossy(), "path4");
        spec.iterations = 4;
        svc.spool().submit(&spec.id, &spec.to_json()).unwrap();
    }
    let summary = svc.run(&MonotonicClock, None);
    assert_eq!(summary.completed, 2, "{summary:?}");

    let server = AdminServer::start(
        "127.0.0.1:0",
        AdminState {
            spool: svc.spool().clone(),
            metrics: svc.metrics(),
        },
        AdminConfig::default(),
    )
    .unwrap();
    let addr = server.local_addr();

    // /healthz: liveness plus queue stats (drained queue = depth 0) and
    // telemetry-loss counters (no failures or drops in a clean run).
    let (status, body) = http_get(addr, "/healthz");
    assert_eq!(status, 200);
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    assert!(body.contains("\"queue_depth\":0"), "{body}");
    assert!(body.contains("\"spool_lag_ms\""), "{body}");
    assert!(body.contains("\"events_write_failures\":0"), "{body}");
    assert!(body.contains("\"trace_events_dropped\":0"), "{body}");

    // /metrics: Prometheus text with the service series, parseable shape
    // (every non-comment line is `name{...} value` or `name value`).
    let (status, body) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    for series in [
        "svc_queue_depth",
        "svc_oldest_job_age_ms",
        "svc_jobs_completed",
        "svc_queue_wait_ms",
        "svc_job_e2e_ms",
        "svc_attempt_duration_ms",
    ] {
        assert!(body.contains(series), "missing {series} in:\n{body}");
    }
    for line in body
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let (name, value) = line.rsplit_once(' ').expect("prom line has a value");
        assert!(!name.is_empty());
        assert!(
            value.parse::<f64>().is_ok() || value == "+Inf",
            "unparseable prom value in {line:?}"
        );
    }

    // /jobs: the folded job table.
    let (status, body) = http_get(addr, "/jobs");
    assert_eq!(status, 200);
    assert!(body.contains("\"schema\":\"fascia-jobs/1\""), "{body}");
    assert!(body.contains("\"id\":\"adm-0\""), "{body}");
    assert!(body.contains("\"state\":\"completed\""), "{body}");

    // /jobs/<id>: the timeline must carry the job's event-log lines
    // *verbatim* — exactly those whose job field matches, in file order.
    let log = std::fs::read_to_string(svc.spool().events_path()).unwrap();
    let expected: Vec<&str> = log
        .lines()
        .filter(|l| l.contains("\"job\":\"adm-1\""))
        .collect();
    assert!(expected.len() >= 4, "submitted/dequeued/attempt/completed");
    let (status, body) = http_get(addr, "/jobs/adm-1");
    assert_eq!(status, 200);
    assert!(body.contains("\"schema\":\"fascia-job-timeline/1\""));
    for line in &expected {
        assert!(body.contains(*line), "timeline must embed {line:?}");
    }
    assert_eq!(
        body.matches("\"schema\":\"fascia-events/1\"").count(),
        expected.len(),
        "timeline carries exactly the job's events"
    );

    // /jobs/<id>/estimate: the spool-backed fascia-est/1 trace the
    // supervisor persisted for the finished job, served verbatim.
    let (status, body) = http_get(addr, "/jobs/adm-0/estimate");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"schema\":\"fascia-est/1\""), "{body}");
    assert!(body.contains("\"iterations\":4"), "{body}");
    assert!(body.contains("\"ledger\""), "{body}");
    assert!(body.contains("\"strata\""), "{body}");
    assert_eq!(http_get(addr, "/jobs/no-such-job/estimate").0, 404);
    assert_eq!(http_get(addr, "/jobs//estimate").0, 404);

    // /version names the crate.
    let (status, body) = http_get(addr, "/version");
    assert_eq!(status, 200);
    assert!(body.contains("\"name\":\"fascia-svc\""), "{body}");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_file(&graph);
}

#[test]
fn hardening_rejects_oversized_slow_and_unknown_requests() {
    let root = tmp_dir("hardening");
    let svc = Service::open(&root, ServiceConfig::default()).unwrap();
    let server = AdminServer::start(
        "127.0.0.1:0",
        AdminState {
            spool: svc.spool().clone(),
            metrics: svc.metrics(),
        },
        AdminConfig {
            max_connections: 4,
            read_timeout: Duration::from_millis(200),
            max_request_bytes: 512,
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // Unknown paths and unknown job ids are 404.
    assert_eq!(http_get(addr, "/nope").0, 404);
    assert_eq!(http_get(addr, "/jobs/no-such-job").0, 404);
    assert_eq!(http_get(addr, "/jobs/a/b").0, 404);

    // Non-GET methods are 405.
    assert_eq!(
        raw_exchange(addr, b"POST /jobs HTTP/1.1\r\nHost: t\r\n\r\n").0,
        405
    );

    // An oversized request head is cut off with 400 at the byte cap.
    let huge = format!("GET /{} HTTP/1.1\r\n", "x".repeat(4096));
    assert_eq!(raw_exchange(addr, huge.as_bytes()).0, 400);

    // A slow-loris client that never finishes its head hits the read
    // deadline and gets 408 instead of pinning the connection thread.
    assert_eq!(raw_exchange(addr, b"GET /healthz HT").0, 408);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// Acceptance criterion: a chaos soak replays byte-for-byte even while
/// the admin endpoint is being scraped concurrently — the server only
/// reads, so it cannot claim chaos indices or reorder supervision.
#[test]
fn concurrent_scraping_does_not_perturb_chaos_replay() {
    let graph = graph_file("scrape");
    let gspec = graph.to_string_lossy().to_string();
    let chaos: ChaosSpec = "seed=41,panic=0.1,io_ckpt=0.15,io_result=0.1"
        .parse()
        .unwrap();

    let run_soak = |tag: &str, scrape: bool| -> (String, String) {
        let root = tmp_dir(&format!("scrape-{tag}"));
        let svc = Service::open(
            &root,
            ServiceConfig {
                supervisor: fast_supervision(),
                once: true,
                chaos: Some(chaos.clone()),
            },
        )
        .unwrap();
        for i in 0..6 {
            let mut spec = JobSpec::new(&format!("soak-{i}"), &gspec, "path4");
            spec.iterations = 4;
            spec.seed = 100 + i;
            svc.spool().submit(&spec.id, &spec.to_json()).unwrap();
        }
        let (server, scraper, stop) = if scrape {
            let server = AdminServer::start(
                "127.0.0.1:0",
                AdminState {
                    spool: svc.spool().clone(),
                    metrics: svc.metrics(),
                },
                AdminConfig::default(),
            )
            .unwrap();
            let addr = server.local_addr();
            let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
            let scraper_stop = std::sync::Arc::clone(&stop);
            let scraper = std::thread::spawn(move || {
                let mut scrapes = 0usize;
                while !scraper_stop.load(std::sync::atomic::Ordering::Relaxed) {
                    for path in ["/metrics", "/jobs", "/healthz", "/jobs/soak-0"] {
                        let _ = std::panic::catch_unwind(|| http_get(addr, path));
                    }
                    scrapes += 1;
                }
                scrapes
            });
            (Some(server), Some(scraper), Some(stop))
        } else {
            (None, None, None)
        };
        let summary = svc.run(&MonotonicClock, None);
        assert_eq!(
            summary.completed + summary.partial + summary.failed,
            6,
            "{tag}: every job terminal"
        );
        if let (Some(server), Some(scraper), Some(stop)) = (server, scraper, stop) {
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            let scrapes = scraper.join().unwrap();
            assert!(scrapes > 0, "the scraper must actually have scraped");
            server.shutdown();
        }
        let chaos_events = std::fs::read_to_string(root.join("chaos.events")).unwrap_or_default();
        // Summarize outcomes by their deterministic fields (elapsed_ms
        // and timestamps legitimately differ between runs).
        let mut results = String::new();
        for i in 0..6 {
            let id = format!("soak-{i}");
            let text = std::fs::read_to_string(svc.spool().result_path(&id)).unwrap();
            let report = fascia_svc::JobReport::from_json(&text).unwrap();
            results.push_str(&format!(
                "{id} {:?} attempts={} iters={} cause={:?} err={:?}\n",
                report.status,
                report.attempts,
                report.iterations,
                report.stop_cause,
                report.error.map(|e| e.kind()),
            ));
        }
        let _ = std::fs::remove_dir_all(&root);
        (chaos_events, results)
    };

    let (events_quiet, results_quiet) = run_soak("quiet", false);
    let (events_scraped, results_scraped) = run_soak("scraped", true);
    assert!(!events_quiet.is_empty(), "the schedule must actually fire");
    assert_eq!(
        events_quiet, events_scraped,
        "chaos replay must be byte-identical under concurrent scraping"
    );
    assert_eq!(
        results_quiet, results_scraped,
        "job outcomes must be identical under concurrent scraping"
    );
    let _ = std::fs::remove_file(&graph);
}
