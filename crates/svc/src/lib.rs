//! `fascia-svc` — the supervised resident counting service (DESIGN.md
//! §16; ROADMAP item 3).
//!
//! Turns the CLI-per-run model into a daemon: a [`Spool`] directory is
//! the durable job queue, a [`GraphPool`] keeps CSR graphs resident and
//! shared across jobs, and a [`Supervisor`] drives every job to exactly
//! one terminal result — `completed`, `partial` (honest reduced-iteration
//! estimate), or `failed` (typed error) — through per-job deadlines,
//! memory budgets, capped-exponential retry with deterministic jitter,
//! heartbeat-sequence liveness, and checkpoint-based crash recovery.
//!
//! Recovery contract: the service can be SIGKILLed at any instant and
//! restarted; jobs with results are skipped, in-flight jobs resume from
//! their last durable checkpoint, and a fixed-rule job's final estimate
//! is bitwise-equal to an uninterrupted run (the engine's resume is
//! bit-for-bit, and every service write is atomic-rename + fsync).
//!
//! The whole composition is proved by injected faults: a
//! [`fascia_core::chaos`] schedule (env `FASCIA_CHAOS` or
//! `--chaos`) fires worker panics, checkpoint/graph/result IO errors,
//! DP stalls, and budget squeezes at seed-scheduled coordinates, and the
//! fired-event log lands in `<spool>/chaos.events` so any failing seed
//! replays byte-for-byte.

pub mod admin;
pub mod backoff;
pub mod clock;
pub mod events;
pub mod job;
pub mod pool;
pub mod spool;
pub mod supervisor;
mod watch;

pub use admin::{AdminConfig, AdminServer, AdminState};
pub use backoff::BackoffPolicy;
pub use clock::{Clock, JobDeadline, MonotonicClock, TestClock};
pub use job::{JobError, JobReport, JobSpec, JobStatus, JOB_SCHEMA, RESULT_SCHEMA};
pub use pool::GraphPool;
pub use spool::Spool;
pub use supervisor::{Supervisor, SupervisorConfig};
use watch::JobsWatch;
pub use watch::IDLE_RESCAN;

use fascia_core::chaos::{Chaos, ChaosRun, ChaosSpec, IoSite};
use fascia_core::resilience::atomic_write;
use fascia_obs::json::ObjectWriter;
use fascia_obs::{EventLog, JobEvent, JobEventKind, Metrics};
use std::collections::HashMap;
use std::io::BufRead;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Service-level configuration.
#[derive(Debug, Clone, Default)]
pub struct ServiceConfig {
    /// Supervision knobs (backoff, poll, stall timeout).
    pub supervisor: SupervisorConfig,
    /// Drain the queue once and exit (tests, batch runs). Off = daemon:
    /// wait on an inotify watch of `jobs/` whenever the queue is empty.
    pub once: bool,
    /// Chaos schedule for soak runs.
    pub chaos: Option<ChaosSpec>,
}

/// What one service run did — rendered as `fascia-svc-report/1`.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ServiceSummary {
    /// Job files seen across all passes.
    pub jobs_seen: usize,
    /// Skipped because a terminal result already existed (recovery).
    pub skipped: usize,
    /// Terminal `completed` results written this run.
    pub completed: usize,
    /// Terminal `partial` results written this run.
    pub partial: usize,
    /// Terminal `failed` results written this run.
    pub failed: usize,
    /// Worker attempts consumed across all jobs.
    pub attempts: u64,
    /// Results that could not be written even with retries.
    pub result_write_failures: usize,
    /// Lifecycle-event appends that failed (the log never wedges a job).
    pub events_write_failures: u64,
    /// Trace-ring events dropped across all attempts (full rings).
    pub trace_events_dropped: u64,
    /// Stale `.tmp` staging files swept when the service opened.
    pub tmp_swept: usize,
    /// Chaos events fired (0 without a schedule).
    pub chaos_events: usize,
    /// Graphs resident in the pool at exit.
    pub graphs_resident: usize,
    /// Pool cache hits (jobs that reused a resident graph).
    pub pool_hits: u64,
}

impl ServiceSummary {
    /// Renders the `fascia-svc-report/1` document.
    pub fn to_json(&self) -> String {
        let mut w = ObjectWriter::new();
        w.field_str("schema", "fascia-svc-report/1")
            .field_u64("jobs_seen", self.jobs_seen as u64)
            .field_u64("skipped", self.skipped as u64)
            .field_u64("completed", self.completed as u64)
            .field_u64("partial", self.partial as u64)
            .field_u64("failed", self.failed as u64)
            .field_u64("attempts", self.attempts)
            .field_u64("result_write_failures", self.result_write_failures as u64)
            .field_u64("events_write_failures", self.events_write_failures)
            .field_u64("trace_events_dropped", self.trace_events_dropped)
            .field_u64("tmp_swept", self.tmp_swept as u64)
            .field_u64("chaos_events", self.chaos_events as u64)
            .field_u64("graphs_resident", self.graphs_resident as u64)
            .field_u64("pool_hits", self.pool_hits);
        w.finish()
    }
}

/// The resident service: owns the spool, pool, chaos schedule, and
/// supervision config; [`Service::run`] is the daemon loop.
pub struct Service {
    spool: Spool,
    pool: GraphPool,
    cfg: ServiceConfig,
    chaos: Option<Arc<Chaos>>,
    /// Service-scope chaos run (result-write faults); engine runs claim
    /// their own indices, so this is always run index 0 — deterministic.
    svc_run: Option<ChaosRun>,
    result_write_ops: std::sync::atomic::AtomicU64,
    /// Live service metrics (queue gauges, terminal-state counters,
    /// latency histograms); shared with the admin endpoint.
    metrics: Arc<Metrics>,
    /// The `fascia-events/1` lifecycle log under `<spool>/events/`.
    events: EventLog,
    /// Submission wall-clock label per job id still without a durable
    /// result — the queue-wait anchor, and the guard that emits
    /// `submitted` exactly once per process. An entry goes when the
    /// job's result is written, so the map holds at most the queue.
    submitted_at: Mutex<HashMap<String, u64>>,
    /// Stale `.tmp` staging files [`Service::open`] swept.
    tmp_swept: usize,
}

impl Service {
    /// Opens (creating as needed) a service over the spool at `root`.
    /// Sweeps stale `.tmp` staging files before anything else runs.
    pub fn open(root: impl Into<std::path::PathBuf>, cfg: ServiceConfig) -> std::io::Result<Self> {
        let spool = Spool::open(root)?;
        let tmp_swept = spool.sweep_tmp();
        let chaos = cfg.chaos.clone().map(|s| Arc::new(Chaos::new(s)));
        let svc_run = chaos.as_ref().map(|c| c.begin_run());
        let pool = GraphPool::new(svc_run.clone());
        let events = EventLog::open(spool.events_path())?;
        let metrics = Arc::new(Metrics::new());
        // Register the service series up front so a scrape before the
        // first job already sees every gauge/counter/histogram name.
        for name in ["svc.queue.depth", "svc.oldest_job.age_ms"] {
            metrics.gauge(name);
        }
        for name in [
            "svc.jobs.completed",
            "svc.jobs.partial",
            "svc.jobs.failed",
            "svc.jobs.skipped",
            "svc.attempts.total",
            "svc.events.write_failures",
            "svc.trace.events_recorded",
            "svc.trace.events_dropped",
        ] {
            metrics.counter(name);
        }
        for name in [
            "svc.queue.wait_ms",
            "svc.attempt.duration_ms",
            "svc.job.e2e_ms",
        ] {
            metrics.histogram(name);
        }
        Ok(Self {
            spool,
            pool,
            cfg,
            chaos,
            svc_run,
            result_write_ops: std::sync::atomic::AtomicU64::new(0),
            metrics,
            events,
            submitted_at: Mutex::new(HashMap::new()),
            tmp_swept,
        })
    }

    /// The spool this service serves.
    pub fn spool(&self) -> &Spool {
        &self.spool
    }

    /// The live metrics registry (shared with the admin endpoint).
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.metrics)
    }

    /// The lifecycle event log.
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// Appends a lifecycle event; write failures only bump a counter
    /// (telemetry must never wedge the queue).
    fn emit(&self, ev: JobEvent) {
        if self.events.append(ev).is_err() {
            self.metrics.counter("svc.events.write_failures").inc();
        }
    }

    /// Records the job's first sighting (ingest or spool scan) as
    /// submitted at `at`: emits `submitted` once per id per process and
    /// anchors its queue wait. Returns the anchor in force.
    fn note_submitted(&self, id: &str, at: u64) -> u64 {
        let mut map = self.submitted_at.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(&first) = map.get(id) {
            return first;
        }
        map.insert(id.to_string(), at);
        drop(map);
        self.emit(JobEvent::new(at, id, JobEventKind::Submitted, 0));
        at
    }

    /// Refreshes the queue gauges from a spool snapshot.
    fn update_queue_gauges(&self, clock: &dyn Clock) {
        let (depth, oldest_ms) = self.spool.queue_snapshot();
        self.metrics.gauge("svc.queue.depth").set(depth as u64);
        let age = oldest_ms.map_or(0, |m| clock.wall_unix_ms().saturating_sub(m));
        self.metrics.gauge("svc.oldest_job.age_ms").set(age);
    }

    /// Ingests a JSONL job stream (one `fascia-job/1` object per line)
    /// into the spool. Returns `(accepted, rejected)`; rejected lines
    /// are reported on stderr and dropped — a malformed submission must
    /// not wedge the queue. Each accepted job gets a `submitted` event
    /// timestamped by `clock` (the same handle that stamps the rest of
    /// its lifecycle).
    pub fn ingest_jsonl(
        &self,
        clock: &dyn Clock,
        reader: impl BufRead,
    ) -> std::io::Result<(usize, usize)> {
        let (mut accepted, mut rejected) = (0, 0);
        for line in reader.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            match JobSpec::from_json(&line) {
                Ok(spec) => {
                    self.spool.submit(&spec.id, &spec.to_json())?;
                    self.note_submitted(&spec.id, clock.wall_unix_ms());
                    accepted += 1;
                }
                Err(e) => {
                    eprintln!("fascia-svc: rejected job line: {e}");
                    rejected += 1;
                }
            }
        }
        Ok((accepted, rejected))
    }

    /// Runs the service until the queue drains (`once`) or `stop` is
    /// set (daemon). Every queued job reaches a terminal result exactly
    /// once; the summary says what happened.
    pub fn run(&self, clock: &dyn Clock, stop: Option<&AtomicBool>) -> ServiceSummary {
        let mut summary = ServiceSummary {
            tmp_swept: self.tmp_swept,
            ..ServiceSummary::default()
        };
        let sup = Supervisor {
            spool: &self.spool,
            pool: &self.pool,
            clock,
            cfg: &self.cfg.supervisor,
            chaos: self.chaos.clone(),
            events: Some(&self.events),
            metrics: Some(&self.metrics),
        };
        let stopped = || stop.is_some_and(|s| s.load(Ordering::Relaxed));
        // A daemon registers its watch before the first scan, so a job
        // that lands during any pass leaves an event behind.
        let watch = (!self.cfg.once).then(|| JobsWatch::new(&self.spool.root().join("jobs")));
        loop {
            if let Some(w) = &watch {
                w.drain();
            }
            self.update_queue_gauges(clock);
            let pending = self.spool.pending_jobs().unwrap_or_default();
            let mut ran_any = false;
            for path in pending {
                if stopped() {
                    break;
                }
                summary.jobs_seen += 1;
                let parsed = self.job_from_file(&path);
                let id = match &parsed {
                    Ok(spec) => spec.id.clone(),
                    Err((id, _)) => id.clone(),
                };
                if self.spool.has_result(&id) {
                    summary.skipped += 1;
                    self.metrics.counter("svc.jobs.skipped").inc();
                    continue;
                }
                ran_any = true;
                // A job dropped into jobs/ has waited since its file
                // landed: anchor at its mtime, never later than now.
                let now = clock.wall_unix_ms();
                let landed = spool::mtime_unix_ms(&path).map_or(now, |m| m.min(now));
                let submitted_ms = self.note_submitted(&id, landed);
                self.emit(JobEvent::new(now, &id, JobEventKind::Dequeued, 0));
                self.metrics
                    .histogram("svc.queue.wait_ms")
                    .record(now.saturating_sub(submitted_ms));
                let report = match parsed {
                    Ok(spec) => sup.run_job(&spec),
                    Err((id, e)) => {
                        // The supervisor never ran, so the terminal
                        // `failed` event is emitted here.
                        self.emit(
                            JobEvent::new(clock.wall_unix_ms(), &id, JobEventKind::Failed, 0)
                                .cause(e.kind()),
                        );
                        JobReport {
                            id,
                            status: JobStatus::Failed,
                            stop_cause: None,
                            estimate: None,
                            ci95: None,
                            iterations: 0,
                            attempts: 0,
                            error: Some(e),
                            elapsed_ms: 0,
                        }
                    }
                };
                summary.attempts += u64::from(report.attempts);
                self.metrics
                    .counter("svc.attempts.total")
                    .add(u64::from(report.attempts));
                match report.status {
                    JobStatus::Completed => {
                        summary.completed += 1;
                        self.metrics.counter("svc.jobs.completed").inc();
                    }
                    JobStatus::Partial => {
                        summary.partial += 1;
                        self.metrics.counter("svc.jobs.partial").inc();
                    }
                    JobStatus::Failed => {
                        summary.failed += 1;
                        self.metrics.counter("svc.jobs.failed").inc();
                    }
                }
                self.metrics
                    .histogram("svc.job.e2e_ms")
                    .record(report.elapsed_ms);
                if self.write_result(clock, &report).is_ok() {
                    // Durable now: `has_result` skips the job from here on.
                    self.submitted_at
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .remove(&report.id);
                } else {
                    summary.result_write_failures += 1;
                    eprintln!(
                        "fascia-svc: could not record result for job {} (retries exhausted)",
                        report.id
                    );
                }
                self.update_queue_gauges(clock);
            }
            self.dump_chaos_events();
            if self.cfg.once || stopped() {
                break;
            }
            if !ran_any {
                if let Some(w) = &watch {
                    w.wait(clock);
                }
            }
        }
        self.update_queue_gauges(clock);
        if let Some(c) = &self.chaos {
            summary.chaos_events = c.events().len();
        }
        let (resident, hits) = self.pool.stats();
        summary.graphs_resident = resident;
        summary.pool_hits = hits;
        summary.events_write_failures = self.metrics.counter("svc.events.write_failures").get();
        summary.trace_events_dropped = self.metrics.counter("svc.trace.events_dropped").get();
        summary
    }

    /// Reads and parses one queued job file. A file whose very name or
    /// contents are unusable still produces a terminal `failed` result
    /// (keyed by the filename stem) so it cannot clog the queue forever.
    fn job_from_file(&self, path: &std::path::Path) -> Result<JobSpec, (String, JobError)> {
        let stem = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "unnamed-job".to_string());
        let fallback_id: String = stem
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.') {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        let text = std::fs::read_to_string(path).map_err(|e| {
            (
                fallback_id.clone(),
                JobError::Invalid(format!("unreadable job file: {e}")),
            )
        })?;
        let spec = JobSpec::from_json(&text).map_err(|e| (fallback_id.clone(), e))?;
        if format!("{}.json", spec.id) != path.file_name().unwrap_or_default().to_string_lossy() {
            return Err((
                fallback_id,
                JobError::Invalid(format!(
                    "job id {:?} does not match its file name (idempotency key)",
                    spec.id
                )),
            ));
        }
        Ok(spec)
    }

    /// Durably records a terminal result. Result writes are a chaos IO
    /// site; injected (and real) failures retry under the service
    /// backoff policy because losing a terminal result would rerun a
    /// finished job on restart.
    fn write_result(&self, clock: &dyn Clock, report: &JobReport) -> Result<(), JobError> {
        let json = report.to_json();
        let policy = &self.cfg.supervisor.backoff;
        let salt = BackoffPolicy::job_salt(&report.id) ^ 0x5E17;
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let injected = self.svc_run.as_ref().and_then(|r| {
                let op = self.result_write_ops.fetch_add(1, Ordering::Relaxed);
                r.io_error(IoSite::ResultWrite, op)
            });
            let outcome = match injected {
                Some(e) => Err(e),
                None => self.spool.write_result(&report.id, &json),
            };
            match outcome {
                Ok(()) => return Ok(()),
                Err(e) if attempt < policy.max_attempts.max(1) => {
                    let _ = e;
                    clock.sleep(policy.delay(salt, attempt));
                }
                Err(e) => return Err(JobError::ResultWrite(e.to_string())),
            }
        }
    }

    /// Rewrites `<spool>/chaos.events` with every fault fired so far —
    /// the byte-for-byte replay artifact.
    fn dump_chaos_events(&self) {
        if let Some(c) = &self.chaos {
            let mut text = c.events().join("\n");
            if !text.is_empty() {
                text.push('\n');
            }
            let _ = atomic_write(&self.spool.root().join("chaos.events"), &text);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_renders_schema() {
        let s = ServiceSummary {
            jobs_seen: 3,
            completed: 2,
            failed: 1,
            ..ServiceSummary::default()
        };
        let text = s.to_json();
        assert!(text.contains("\"schema\":\"fascia-svc-report/1\""));
        assert!(text.contains("\"completed\":2"));
    }

    /// Service state must not grow with uptime: a job's submission
    /// anchor goes once its terminal result is durable.
    #[test]
    fn submission_anchors_are_dropped_with_durable_results() {
        let root = std::env::temp_dir().join(format!("fascia-svc-anchors-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cfg = ServiceConfig {
            once: true,
            ..ServiceConfig::default()
        };
        let svc = Service::open(&root, cfg).unwrap();
        let mut jobs = String::new();
        for i in 0..3 {
            let mut spec = JobSpec::new(&format!("anchor-{i}"), "circuit", "path3");
            spec.iterations = 1;
            jobs.push_str(&spec.to_json());
            jobs.push('\n');
        }
        svc.ingest_jsonl(&clock::MonotonicClock, jobs.as_bytes())
            .unwrap();
        // A job whose file cannot be parsed still gets a terminal result.
        svc.spool().submit("anchor-bad", "not json").unwrap();
        assert_eq!(svc.submitted_at.lock().unwrap().len(), 3);
        let summary = svc.run(&clock::MonotonicClock, None);
        assert_eq!((summary.completed, summary.failed), (3, 1), "{summary:?}");
        assert!(svc.submitted_at.lock().unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&root);
    }
}
