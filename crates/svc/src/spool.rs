//! On-disk spool: the service's durable state machine.
//!
//! ```text
//! <root>/
//!   jobs/<name>.json      submitted fascia-job/1 documents (the queue)
//!   results/<id>.json     terminal fascia-job-result/1 documents
//!   ckpt/<id>.a<K>.ckpt   per-attempt fascia-ckpt/1 checkpoints
//!   hb/<id>.hb            the running attempt's fascia-heartbeat/1 file
//!   est/<id>.json         per-job fascia-est/1 estimator-convergence traces
//!   chaos.events          fired chaos schedule (when chaos is active)
//! ```
//!
//! Idempotency contract: a job whose id already has a result file is
//! *done* and is skipped on every later pass — that is the whole
//! restart-recovery story. A killed service leaves at worst a valid
//! checkpoint (writes are atomic and, in the service path, durable:
//! tmp → fsync → rename → fsync dir) plus `.tmp` staging siblings,
//! which [`Spool::sweep_tmp`] removes at startup.
//!
//! Checkpoints are *per attempt* (`<id>.a<K>.ckpt`): a detached zombie
//! worker from attempt K can keep flushing its own file without ever
//! regressing attempt K+1's, and resume picks the best valid checkpoint
//! across attempts.

use fascia_core::resilience::{atomic_write, atomic_write_durable, Checkpoint};
use std::io;
use std::path::{Path, PathBuf};

/// Handle to a spool directory tree.
#[derive(Debug, Clone)]
pub struct Spool {
    root: PathBuf,
}

impl Spool {
    /// Opens (creating as needed) the spool at `root`.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        for sub in ["jobs", "results", "ckpt", "hb", "events", "est"] {
            std::fs::create_dir_all(root.join(sub))?;
        }
        Ok(Self { root })
    }

    /// The spool root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Submits a job document into the queue (atomic + durable write,
    /// named by the job id so resubmission is idempotent).
    pub fn submit(&self, id: &str, job_json: &str) -> io::Result<PathBuf> {
        let path = self.root.join("jobs").join(format!("{id}.json"));
        atomic_write_durable(&path, job_json)?;
        Ok(path)
    }

    /// Queued job files in deterministic (byte-sorted filename) order —
    /// the order that makes chaos run indices replayable.
    pub fn pending_jobs(&self) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(self.root.join("jobs"))? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "json") {
                out.push(path);
            }
        }
        out.sort();
        Ok(out)
    }

    /// Where the job's terminal result lives.
    pub fn result_path(&self, id: &str) -> PathBuf {
        self.root.join("results").join(format!("{id}.json"))
    }

    /// Whether the job already reached a terminal state.
    pub fn has_result(&self, id: &str) -> bool {
        self.result_path(id).exists()
    }

    /// Writes the terminal result durably (atomic rename + dir fsync):
    /// once this returns, a crash cannot resurrect the job.
    pub fn write_result(&self, id: &str, json: &str) -> io::Result<()> {
        atomic_write_durable(&self.result_path(id), json)
    }

    /// Attempt `k`'s checkpoint path for the job.
    pub fn ckpt_path(&self, id: &str, attempt: u32) -> PathBuf {
        self.root.join("ckpt").join(format!("{id}.a{attempt}.ckpt"))
    }

    /// The job's heartbeat path (shared across attempts; the supervision
    /// triple `pid`/`job_id`/`seq` tells writers apart).
    pub fn hb_path(&self, id: &str) -> PathBuf {
        self.root.join("hb").join(format!("{id}.hb"))
    }

    /// The most advanced *valid* checkpoint among the job's attempts,
    /// with its iteration count. Corrupt or unreadable files are skipped
    /// (a torn write cannot exist thanks to atomic renames, but a zombie
    /// writer's file might be from a stale fingerprint — the engine's
    /// resume check still guards that).
    pub fn best_checkpoint(&self, id: &str) -> Option<(Checkpoint, usize)> {
        let prefix = format!("{id}.a");
        let dir = std::fs::read_dir(self.root.join("ckpt")).ok()?;
        let mut best: Option<(Checkpoint, usize)> = None;
        for entry in dir.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if !name.starts_with(&prefix) || !name.ends_with(".ckpt") {
                continue;
            }
            if let Ok(ck) = Checkpoint::load(&entry.path()) {
                let n = ck.iterations_done();
                if best.as_ref().is_none_or(|(_, b)| n > *b) {
                    best = Some((ck, n));
                }
            }
        }
        best
    }

    /// Removes the job's working files (checkpoints, heartbeat) after a
    /// terminal result is durably recorded.
    pub fn cleanup_job(&self, id: &str) {
        let prefix = format!("{id}.a");
        if let Ok(dir) = std::fs::read_dir(self.root.join("ckpt")) {
            for entry in dir.flatten() {
                if entry
                    .file_name()
                    .to_str()
                    .is_some_and(|n| n.starts_with(&prefix) && n.ends_with(".ckpt"))
                {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
        let _ = std::fs::remove_file(self.hb_path(id));
    }

    /// The job's estimator-convergence trace (`fascia-est/1`), written
    /// when an attempt finishes and served live by the admin plane.
    pub fn est_path(&self, id: &str) -> PathBuf {
        self.root.join("est").join(format!("{id}.json"))
    }

    /// Writes (or refreshes) the job's estimator trace. Atomic but not
    /// durable: the trace is observability, not recovery state, and it
    /// is rewritten on every live flush — a lost write costs nothing.
    pub fn write_est(&self, id: &str, json: &str) -> io::Result<()> {
        atomic_write(&self.est_path(id), json)
    }

    /// The job lifecycle event log (`fascia-events/1` JSONL).
    pub fn events_path(&self) -> PathBuf {
        self.root.join("events").join("events.jsonl")
    }

    /// Queue snapshot for gauges and `/healthz`: how many jobs still
    /// wait for a terminal result, and the oldest such job file's mtime
    /// in unix milliseconds (the spool-lag anchor).
    pub fn queue_snapshot(&self) -> (usize, Option<u64>) {
        let mut depth = 0;
        let mut oldest: Option<u64> = None;
        for path in self.pending_jobs().unwrap_or_default() {
            let id = path
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_default();
            if self.has_result(&id) {
                continue;
            }
            depth += 1;
            if let Some(ms) = mtime_unix_ms(&path) {
                oldest = Some(oldest.map_or(ms, |o| o.min(ms)));
            }
        }
        (depth, oldest)
    }

    /// Sweeps `.tmp` staging files left by a killed writer. Returns how
    /// many were removed. Call at service start, before any job runs.
    pub fn sweep_tmp(&self) -> usize {
        let mut removed = 0;
        for sub in ["jobs", "results", "ckpt", "hb", "events", "est"] {
            let Ok(dir) = std::fs::read_dir(self.root.join(sub)) else {
                continue;
            };
            for entry in dir.flatten() {
                let path = entry.path();
                if path.extension().is_some_and(|e| e == "tmp")
                    && std::fs::remove_file(&path).is_ok()
                {
                    removed += 1;
                }
            }
        }
        removed
    }
}

/// A file's mtime in unix milliseconds: when a job file landed in
/// `jobs/`, the anchor of its queue wait and of the spool-lag gauge.
pub(crate) fn mtime_unix_ms(path: &Path) -> Option<u64> {
    let modified = std::fs::metadata(path).and_then(|m| m.modified()).ok()?;
    let since_epoch = modified.duration_since(std::time::UNIX_EPOCH).ok()?;
    Some(since_epoch.as_millis() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fascia_core::stats::StopRule;

    fn tmp_root(tag: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("fascia-spool-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    fn ckpt(iters: usize) -> Checkpoint {
        Checkpoint {
            seed: 1,
            colors: 5,
            template_size: 5,
            graph_vertices: 10,
            graph_edges: 12,
            rule: StopRule::FixedIterations(100),
            per_iteration: (0..iters).map(|i| i as f64).collect(),
            peak_table_bytes: 64,
        }
    }

    #[test]
    fn queue_order_is_deterministic_and_results_gate_jobs() {
        let spool = Spool::open(tmp_root("order")).unwrap();
        spool.submit("b-job", "{}").unwrap();
        spool.submit("a-job", "{}").unwrap();
        let names: Vec<String> = spool
            .pending_jobs()
            .unwrap()
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, ["a-job.json", "b-job.json"]);
        assert!(!spool.has_result("a-job"));
        spool.write_result("a-job", "{}").unwrap();
        assert!(spool.has_result("a-job"));
        let _ = std::fs::remove_dir_all(spool.root());
    }

    #[test]
    fn best_checkpoint_picks_most_iterations_and_skips_corrupt() {
        let spool = Spool::open(tmp_root("best")).unwrap();
        ckpt(3).save(&spool.ckpt_path("j", 0)).unwrap();
        ckpt(7).save(&spool.ckpt_path("j", 1)).unwrap();
        std::fs::write(spool.ckpt_path("j", 2), "garbage").unwrap();
        ckpt(9).save(&spool.ckpt_path("other", 0)).unwrap();
        let (best, n) = spool.best_checkpoint("j").unwrap();
        assert_eq!(n, 7);
        assert_eq!(best.iterations_done(), 7);
        assert!(spool.best_checkpoint("missing").is_none());
        spool.cleanup_job("j");
        assert!(spool.best_checkpoint("j").is_none());
        assert!(
            spool.best_checkpoint("other").is_some(),
            "cleanup is scoped"
        );
        let _ = std::fs::remove_dir_all(spool.root());
    }

    #[test]
    fn sweep_removes_only_tmp_files_including_events_dir() {
        let spool = Spool::open(tmp_root("sweep")).unwrap();
        std::fs::write(spool.root().join("ckpt/x.ckpt.tmp"), "half").unwrap();
        std::fs::write(spool.root().join("results/y.json.tmp"), "half").unwrap();
        // Regression (ISSUE 9 satellite): a stale staging file in the
        // events dir is swept under the same contract, while the event
        // log itself survives.
        std::fs::write(spool.root().join("events/events.jsonl.tmp"), "half").unwrap();
        std::fs::write(spool.events_path(), "{}\n").unwrap();
        // Regression (ISSUE 10 satellite): a stale staging file in the
        // estimate-trace dir is swept too, while a finished trace stays.
        std::fs::write(spool.root().join("est/z.json.tmp"), "half").unwrap();
        std::fs::write(spool.est_path("z"), "{\"schema\":\"fascia-est/1\"}").unwrap();
        spool.submit("keep", "{}").unwrap();
        assert_eq!(spool.sweep_tmp(), 4);
        assert!(spool.events_path().exists(), "the log is not staging");
        assert!(spool.est_path("z").exists(), "finished traces survive");
        assert_eq!(spool.pending_jobs().unwrap().len(), 1);
        assert_eq!(spool.sweep_tmp(), 0);
        let _ = std::fs::remove_dir_all(spool.root());
    }

    #[test]
    fn queue_snapshot_counts_only_unresolved_jobs() {
        let spool = Spool::open(tmp_root("snapshot")).unwrap();
        assert_eq!(spool.queue_snapshot(), (0, None));
        spool.submit("done", "{}").unwrap();
        spool.submit("waiting", "{}").unwrap();
        spool.write_result("done", "{}").unwrap();
        let (depth, oldest) = spool.queue_snapshot();
        assert_eq!(depth, 1);
        assert!(oldest.is_some(), "pending job carries its mtime");
        let _ = std::fs::remove_dir_all(spool.root());
    }
}
