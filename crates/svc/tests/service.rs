//! End-to-end service tests: clean runs, checkpoint crash-resume
//! bitwise equality, deterministic chaos soak + replay, and the
//! stale-heartbeat dead-worker path.

use fascia_core::chaos::ChaosSpec;
use fascia_core::engine::{count_template, CountConfig};
use fascia_core::resilience::Checkpoint;
use fascia_core::stats::StopRule;
use fascia_graph::io::load_edge_list;
use fascia_obs::JobEventKind;
use fascia_svc::supervisor::SupervisorConfig;
use fascia_svc::{
    BackoffPolicy, JobReport, JobSpec, JobStatus, MonotonicClock, Service, ServiceConfig,
};
use std::path::PathBuf;
use std::time::Duration;

fn tmp_dir(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("fascia-svc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// A small but non-trivial graph file shared by the tests.
fn graph_file(tag: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("fascia-svc-graph-{tag}-{}.txt", std::process::id()));
    let mut text = String::new();
    // A 40-vertex ring with chords: enough structure for path/star counts.
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

fn read_report(svc: &Service, id: &str) -> JobReport {
    let text = std::fs::read_to_string(svc.spool().result_path(id)).unwrap();
    JobReport::from_json(&text).unwrap()
}

#[test]
fn clean_job_completes_end_to_end() {
    let graph = graph_file("clean");
    let root = tmp_dir("clean");
    let svc = Service::open(
        &root,
        ServiceConfig {
            supervisor: fast_supervision(),
            once: true,
            ..ServiceConfig::default()
        },
    )
    .unwrap();

    let mut spec = JobSpec::new("clean-1", &graph.to_string_lossy(), "path4");
    spec.iterations = 8;
    let line = spec.to_json();
    let (accepted, rejected) = svc.ingest_jsonl(&MonotonicClock, line.as_bytes()).unwrap();
    assert_eq!((accepted, rejected), (1, 0));

    let summary = svc.run(&MonotonicClock, None);
    assert_eq!(summary.completed, 1, "{summary:?}");
    assert_eq!(summary.failed, 0);

    let report = read_report(&svc, "clean-1");
    assert_eq!(report.status, JobStatus::Completed);
    assert_eq!(report.stop_cause.as_deref(), Some("completed"));
    assert_eq!(report.iterations, 8);
    assert_eq!(report.attempts, 1);
    assert!(report.estimate.unwrap() >= 0.0);
    // Working files are gone once the terminal result is durable.
    assert!(!svc.spool().hb_path("clean-1").exists());
    assert!(svc.spool().best_checkpoint("clean-1").is_none());

    // A second pass skips the finished job (restart idempotency).
    let again = svc.run(&MonotonicClock, None);
    assert_eq!(again.skipped, 1);
    assert_eq!(again.completed, 0);

    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_file(&graph);
}

/// A job file dropped into `jobs/` has waited since it landed, not since
/// the scan that found it: the `submitted` event and the
/// `svc.queue.wait_ms` histogram both carry the real wait.
#[test]
fn queue_wait_counts_from_the_job_files_landing() {
    let graph = graph_file("wait");
    let root = tmp_dir("wait");
    let svc = Service::open(
        &root,
        ServiceConfig {
            supervisor: fast_supervision(),
            once: true,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let mut spec = JobSpec::new("waited", &graph.to_string_lossy(), "path3");
    spec.iterations = 2;
    svc.spool().submit(&spec.id, &spec.to_json()).unwrap();
    std::thread::sleep(Duration::from_millis(60));
    assert_eq!(svc.run(&MonotonicClock, None).completed, 1);

    let events = fascia_svc::events::read_events(&svc.spool().events_path());
    let at = |kind: JobEventKind| {
        events
            .iter()
            .find(|e| e.kind == kind)
            .map(|e| e.ts_unix_ms)
            .unwrap()
    };
    let waited = at(JobEventKind::Dequeued) - at(JobEventKind::Submitted);
    assert!(waited >= 50, "submitted only {waited} ms before dequeue");
    let hist = svc.metrics().histogram("svc.queue.wait_ms");
    assert_eq!(hist.count(), 1);
    assert!(hist.min().unwrap() >= 50, "queue wait {:?} ms", hist.min());

    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_file(&graph);
}

/// A staging file left by a writer killed mid-submit is swept when the
/// service opens, and the run's summary reports it.
#[test]
fn stale_tmp_file_is_swept_and_reported() {
    let root = tmp_dir("swept");
    std::fs::create_dir_all(root.join("jobs")).unwrap();
    let stale = root.join("jobs").join("x.json.tmp");
    std::fs::write(&stale, "{\"schema\":").unwrap();
    let svc = Service::open(
        &root,
        ServiceConfig {
            once: true,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let summary = svc.run(&MonotonicClock, None);
    assert_eq!(summary.tmp_swept, 1, "{summary:?}");
    assert_eq!(summary.jobs_seen, 0);
    assert!(!stale.exists());
    assert!(summary.to_json().contains("\"tmp_swept\":1"));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn malformed_and_unloadable_jobs_reach_typed_terminal_results() {
    let root = tmp_dir("bad");
    let svc = Service::open(
        &root,
        ServiceConfig {
            supervisor: fast_supervision(),
            once: true,
            ..ServiceConfig::default()
        },
    )
    .unwrap();

    // Unknown key: terminal invalid, no retries.
    svc.spool()
        .submit(
            "bad-key",
            r#"{"schema":"fascia-job/1","id":"bad-key","graph":"g","template":"path3","typo":1}"#,
        )
        .unwrap();
    // Missing graph file: transient, retried, then terminal.
    svc.spool()
        .submit(
            "no-graph",
            &JobSpec::new("no-graph", "/nonexistent/fascia.txt", "path3").to_json(),
        )
        .unwrap();
    // Unknown template: terminal invalid.
    svc.spool()
        .submit(
            "bad-template",
            &JobSpec::new("bad-template", "/nonexistent/fascia.txt", "wedge99").to_json(),
        )
        .unwrap();

    let summary = svc.run(&MonotonicClock, None);
    assert_eq!(summary.failed, 3, "{summary:?}");
    assert_eq!(summary.completed + summary.partial, 0);

    let bad = read_report(&svc, "bad-key");
    assert_eq!(bad.error.as_ref().unwrap().kind(), "invalid");
    assert_eq!(bad.attempts, 0);

    let nog = read_report(&svc, "no-graph");
    assert_eq!(nog.error.as_ref().unwrap().kind(), "retries-exhausted");
    assert_eq!(nog.attempts, 4, "transient load failures use the budget");

    let badt = read_report(&svc, "bad-template");
    assert_eq!(badt.error.as_ref().unwrap().kind(), "invalid");

    let _ = std::fs::remove_dir_all(&root);
}

/// The acceptance property: a job resumed from a mid-run checkpoint
/// (exactly what a SIGKILLed service leaves behind) produces a final
/// estimate bitwise-equal to the uninterrupted run.
#[test]
fn resume_from_checkpoint_is_bitwise_equal_to_uninterrupted() {
    let graph_path = graph_file("bitwise");
    let gspec = graph_path.to_string_lossy().to_string();
    let iterations = 24usize;
    let seed = 0xFEED_u64;

    let job = |id: &str| {
        let mut s = JobSpec::new(id, &gspec, "path5");
        s.iterations = iterations;
        s.seed = seed;
        s
    };

    // Reference: uninterrupted service run.
    let root_a = tmp_dir("bitwise-a");
    let svc_a = Service::open(
        &root_a,
        ServiceConfig {
            supervisor: fast_supervision(),
            once: true,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    svc_a.spool().submit("bw", &job("bw").to_json()).unwrap();
    let summary = svc_a.run(&MonotonicClock, None);
    assert_eq!(summary.completed, 1, "{summary:?}");
    let reference = read_report(&svc_a, "bw");

    // Fabricate the crash artifact: a durable checkpoint holding the
    // true prefix of the per-iteration series (what a killed worker's
    // last flush would contain), with the matching fingerprint.
    let (graph, _) = load_edge_list(&gspec).unwrap();
    let cfg = CountConfig {
        iterations,
        seed,
        ..CountConfig::default()
    };
    let full = count_template(&graph, &fascia_template::Template::path(5), &cfg).unwrap();
    assert_eq!(full.per_iteration.len(), iterations);

    for cut in [1usize, 9, 23] {
        let root_b = tmp_dir(&format!("bitwise-b{cut}"));
        let svc_b = Service::open(
            &root_b,
            ServiceConfig {
                supervisor: fast_supervision(),
                once: true,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        svc_b.spool().submit("bw", &job("bw").to_json()).unwrap();
        let ck = Checkpoint {
            seed,
            colors: 5,
            template_size: 5,
            graph_vertices: graph.num_vertices(),
            graph_edges: graph.num_edges(),
            rule: StopRule::FixedIterations(iterations),
            per_iteration: full.per_iteration[..cut].to_vec(),
            peak_table_bytes: 0,
        };
        ck.save(&svc_b.spool().ckpt_path("bw", 0)).unwrap();

        let summary = svc_b.run(&MonotonicClock, None);
        assert_eq!(summary.completed, 1, "cut={cut}: {summary:?}");
        let resumed = read_report(&svc_b, "bw");
        assert_eq!(
            resumed.estimate.unwrap().to_bits(),
            reference.estimate.unwrap().to_bits(),
            "cut={cut}: resumed estimate must be bitwise-equal"
        );
        assert_eq!(resumed.iterations, iterations);
        let _ = std::fs::remove_dir_all(&root_b);
    }

    let _ = std::fs::remove_dir_all(&root_a);
    let _ = std::fs::remove_file(&graph_path);
}

/// A mismatched checkpoint (different seed) must be ignored, not
/// resumed into a corrupted estimate.
#[test]
fn stale_fingerprint_checkpoints_are_ignored() {
    let graph_path = graph_file("stale");
    let gspec = graph_path.to_string_lossy().to_string();
    let root = tmp_dir("stale-fp");
    let svc = Service::open(
        &root,
        ServiceConfig {
            supervisor: fast_supervision(),
            once: true,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let mut spec = JobSpec::new("sf", &gspec, "path3");
    spec.iterations = 6;
    svc.spool().submit("sf", &spec.to_json()).unwrap();

    let (graph, _) = load_edge_list(&gspec).unwrap();
    let poison = Checkpoint {
        seed: spec.seed ^ 1, // wrong seed: must not be resumed
        colors: 3,
        template_size: 3,
        graph_vertices: graph.num_vertices(),
        graph_edges: graph.num_edges(),
        rule: StopRule::FixedIterations(6),
        per_iteration: vec![1e300; 3],
        peak_table_bytes: 0,
    };
    poison.save(&svc.spool().ckpt_path("sf", 0)).unwrap();

    let summary = svc.run(&MonotonicClock, None);
    assert_eq!(summary.completed, 1, "{summary:?}");
    let report = read_report(&svc, "sf");
    assert_eq!(report.iterations, 6);
    assert!(
        report.estimate.unwrap() < 1e100,
        "poison series must not leak into the estimate"
    );
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_file(&graph_path);
}

/// Every checkpoint flush failing is a transient error each attempt;
/// the supervisor burns the retry budget and fails typed — no hang, no
/// panic escape.
#[test]
fn persistent_checkpoint_faults_exhaust_retries_with_typed_error() {
    let graph_path = graph_file("ckfault");
    let root = tmp_dir("ckfault");
    let svc = Service::open(
        &root,
        ServiceConfig {
            supervisor: fast_supervision(),
            once: true,
            chaos: Some("seed=3,io_ckpt=1".parse::<ChaosSpec>().unwrap()),
        },
    )
    .unwrap();
    let mut spec = JobSpec::new("ck", &graph_path.to_string_lossy(), "path3");
    spec.iterations = 4;
    svc.spool().submit("ck", &spec.to_json()).unwrap();

    let summary = svc.run(&MonotonicClock, None);
    assert_eq!(summary.failed, 1, "{summary:?}");
    let report = read_report(&svc, "ck");
    assert_eq!(report.error.as_ref().unwrap().kind(), "retries-exhausted");
    assert_eq!(report.attempts, 4);
    assert!(summary.chaos_events >= 4, "one io fault per attempt");
    assert!(root.join("chaos.events").exists());

    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_file(&graph_path);
}

/// A worker wedged in the DP (chaos stall ≫ stall timeout) is detected
/// through its frozen heartbeat sequence, cancelled, detached, and the
/// job reaches a terminal state instead of hanging the service.
#[test]
fn stalled_worker_is_declared_dead_via_heartbeat_sequence() {
    let graph_path = graph_file("stall");
    let root = tmp_dir("stall");
    let svc = Service::open(
        &root,
        ServiceConfig {
            supervisor: SupervisorConfig {
                backoff: BackoffPolicy {
                    base: Duration::from_millis(2),
                    cap: Duration::from_millis(10),
                    max_attempts: 2,
                    ..BackoffPolicy::default()
                },
                poll: Duration::from_millis(5),
                stall_timeout: Duration::from_millis(120),
                grace: Duration::from_millis(30),
            },
            once: true,
            // Every iteration stalls for 3s — far beyond the 120ms
            // stall timeout, so the heartbeat seq never advances.
            chaos: Some("seed=5,stall=1,stall_ms=3000".parse::<ChaosSpec>().unwrap()),
        },
    )
    .unwrap();
    let mut spec = JobSpec::new("wedge", &graph_path.to_string_lossy(), "path3");
    spec.iterations = 4;
    svc.spool().submit("wedge", &spec.to_json()).unwrap();

    let t0 = std::time::Instant::now();
    let summary = svc.run(&MonotonicClock, None);
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "supervisor must detach, not wait out the stall"
    );
    assert_eq!(summary.failed, 1, "{summary:?}");
    let report = read_report(&svc, "wedge");
    assert_eq!(report.error.as_ref().unwrap().kind(), "retries-exhausted");
    assert!(
        report
            .error
            .as_ref()
            .unwrap()
            .message()
            .contains("worker-dead"),
        "last transient cause is the dead worker: {report:?}"
    );

    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_file(&graph_path);
}

/// The tentpole soak: a mixed job batch under a probabilistic chaos
/// schedule. Every job must reach a terminal result; a replay under the
/// same seed must fire the identical event sequence and produce
/// identical outcomes.
#[test]
fn chaos_soak_terminates_every_job_and_replays_byte_for_byte() {
    let graph_path = graph_file("soak");
    let gspec = graph_path.to_string_lossy().to_string();
    let chaos: ChaosSpec = "seed=77,panic=0.08,io_ckpt=0.15,io_result=0.1,stall=0.05,stall_ms=2"
        .parse()
        .unwrap();

    let run_soak = |tag: &str| -> (Vec<(String, JobReport)>, String, fascia_svc::ServiceSummary) {
        let root = tmp_dir(tag);
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
            let mut spec = JobSpec::new(&format!("soak-{i:02}"), &gspec, "path4");
            spec.iterations = 10;
            spec.seed = 0x5_0A_0C + i;
            svc.spool().submit(&spec.id, &spec.to_json()).unwrap();
        }
        let summary = svc.run(&MonotonicClock, None);
        let mut reports = Vec::new();
        for i in 0..6 {
            let id = format!("soak-{i:02}");
            assert!(
                svc.spool().has_result(&id),
                "{tag}: job {id} must reach a terminal result"
            );
            reports.push((id.clone(), read_report(&svc, &id)));
        }
        let events = std::fs::read_to_string(root.join("chaos.events")).unwrap_or_default();
        // No torn files anywhere in the tree.
        assert_eq!(svc.spool().sweep_tmp(), 0, "{tag}: no staging litter");
        let _ = std::fs::remove_dir_all(&root);
        (reports, events, summary)
    };

    let (reports_a, events_a, summary_a) = run_soak("soak-a");
    let (reports_b, events_b, summary_b) = run_soak("soak-b");

    // Terminal-state contract: completed, partial, or typed failure.
    for (id, r) in &reports_a {
        match r.status {
            JobStatus::Completed | JobStatus::Partial => {
                assert!(r.estimate.is_some(), "{id}: estimate required")
            }
            JobStatus::Failed => assert!(r.error.is_some(), "{id}: typed error required"),
        }
        assert!(r.attempts >= 1 || r.status == JobStatus::Failed);
    }

    // Replay: identical fired-event log, byte for byte.
    assert!(!events_a.is_empty(), "soak schedule must actually fire");
    assert_eq!(events_a, events_b, "chaos replay must be byte-identical");
    assert_eq!(summary_a.chaos_events, summary_b.chaos_events);
    assert_eq!(
        (summary_a.completed, summary_a.partial, summary_a.failed),
        (summary_b.completed, summary_b.partial, summary_b.failed)
    );

    // Replay: identical terminal outcomes, bit for bit where numeric.
    for ((id_a, a), (id_b, b)) in reports_a.iter().zip(&reports_b) {
        assert_eq!(id_a, id_b);
        assert_eq!(a.status, b.status, "{id_a}");
        assert_eq!(a.attempts, b.attempts, "{id_a}");
        assert_eq!(
            a.estimate.map(f64::to_bits),
            b.estimate.map(f64::to_bits),
            "{id_a}"
        );
        assert_eq!(
            a.error.as_ref().map(|e| e.kind()),
            b.error.as_ref().map(|e| e.kind()),
            "{id_a}"
        );
    }

    let _ = std::fs::remove_file(&graph_path);
}
