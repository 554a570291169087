//! Joins the generator's view of each job (when it was due, when its
//! result became durable, whether it checked out) with the daemon's
//! `fascia-events/1` lifecycle log.
//!
//! Queue wait is measured from the generator's due time, not from the
//! daemon's `submitted` event: for a file dropped into `jobs/` the daemon
//! stamps `submitted` only when it dequeues the job.

use fascia_obs::{JobEvent, JobEventKind};
use std::collections::HashMap;

/// What the generator knows about one job. Times are wall-clock
/// milliseconds since the Unix epoch, fractional.
#[derive(Debug, Clone, PartialEq)]
pub struct JobObs {
    /// Job id, as in the daemon's events.
    pub id: String,
    /// When the job was due to be submitted.
    pub due_ms: f64,
    /// When its result was first seen in `results/`.
    pub durable_ms: Option<f64>,
    /// Whether the result ended `completed` and passed the output check.
    pub ok: bool,
}

/// Per-job latency and its split across the service's stages.
#[derive(Debug, Clone, PartialEq)]
pub struct JobTimes {
    /// Due time to durable result; infinite for a failed, partial,
    /// mismatched or missing job, which misses every latency limit.
    pub latency_ms: f64,
    /// Due time to the first `dequeued` event.
    pub queue_wait_ms: Option<f64>,
    /// `dequeued` to the first `attempt-started`.
    pub dispatch_ms: Option<f64>,
    /// Last `attempt-started` to the terminal event.
    pub attempt_ms: Option<f64>,
    /// Terminal `completed` event to the durable result.
    pub durable_ms: Option<f64>,
    /// Attempts the supervisor started.
    pub attempts: u32,
}

#[derive(Default)]
struct Seen {
    dequeued: Option<u64>,
    first_attempt: Option<u64>,
    last_attempt: Option<u64>,
    terminal: Option<u64>,
    completed: Option<u64>,
    attempts: u32,
}

/// One [`JobTimes`] per entry of `jobs`, in the same order.
pub fn join(jobs: &[JobObs], events: &[JobEvent]) -> Vec<JobTimes> {
    let mut seen: HashMap<&str, Seen> = HashMap::new();
    for ev in events {
        let s = seen.entry(ev.job.as_str()).or_default();
        let ts = ev.ts_unix_ms;
        match ev.kind {
            JobEventKind::Dequeued => {
                s.dequeued.get_or_insert(ts);
            }
            JobEventKind::AttemptStarted => {
                s.attempts += 1;
                s.first_attempt.get_or_insert(ts);
                s.last_attempt = Some(ts);
            }
            JobEventKind::Completed => {
                s.completed = Some(ts);
                s.terminal = Some(ts);
            }
            JobEventKind::Degraded | JobEventKind::Failed => s.terminal = Some(ts),
            _ => {}
        }
    }
    let diff = |a: Option<f64>, b: Option<f64>| Some(b? - a?);
    let ms = |t: Option<u64>| t.map(|v| v as f64);
    jobs.iter()
        .map(|job| {
            let s = seen.get(job.id.as_str());
            let get = |f: fn(&Seen) -> Option<u64>| ms(s.and_then(f));
            let latency_ms = match (job.ok, job.durable_ms) {
                (true, Some(d)) => d - job.due_ms,
                _ => f64::INFINITY,
            };
            JobTimes {
                latency_ms,
                queue_wait_ms: diff(Some(job.due_ms), get(|s| s.dequeued)),
                dispatch_ms: diff(get(|s| s.dequeued), get(|s| s.first_attempt)),
                attempt_ms: diff(get(|s| s.last_attempt), get(|s| s.terminal)),
                durable_ms: diff(get(|s| s.completed), job.durable_ms),
                attempts: s.map_or(0, |s| s.attempts),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, ts: u64, job: &str, kind: JobEventKind, attempt: u32) -> JobEvent {
        let mut e = JobEvent::new(ts, job, kind, attempt);
        e.seq = seq;
        e
    }

    fn obs(id: &str, due: f64, durable: Option<f64>, ok: bool) -> JobObs {
        JobObs {
            id: id.into(),
            due_ms: due,
            durable_ms: durable,
            ok,
        }
    }

    #[test]
    fn stages_split_the_latency() {
        use JobEventKind::*;
        let events = [
            // `submitted` is stamped at dequeue; the join must ignore it.
            ev(0, 1300, "a", Submitted, 0),
            ev(1, 1300, "a", Dequeued, 0),
            ev(2, 1302, "a", AttemptStarted, 1),
            ev(3, 1340, "a", Completed, 1),
        ];
        let t = join(&[obs("a", 1000.5, Some(1345.5), true)], &events);
        assert_eq!(
            t[0],
            JobTimes {
                latency_ms: 345.0,
                queue_wait_ms: Some(299.5),
                dispatch_ms: Some(2.0),
                attempt_ms: Some(38.0),
                durable_ms: Some(5.5),
                attempts: 1,
            }
        );
    }

    #[test]
    fn failed_partial_and_missing_jobs_have_infinite_latency() {
        use JobEventKind::*;
        let events = [
            ev(0, 10, "f", Dequeued, 0),
            ev(1, 11, "f", AttemptStarted, 1),
            ev(2, 20, "f", AttemptStarted, 2),
            ev(3, 30, "f", Failed, 2),
            ev(4, 12, "p", Dequeued, 0),
            ev(5, 13, "p", AttemptStarted, 1),
            ev(6, 50, "p", Degraded, 1),
        ];
        let jobs = [
            obs("f", 5.0, Some(31.0), false),
            obs("p", 6.0, Some(51.0), false),
            obs("gone", 7.0, None, true),
        ];
        let t = join(&jobs, &events);
        assert!(t.iter().all(|t| t.latency_ms.is_infinite()));
        assert_eq!(t[0].attempts, 2);
        assert_eq!(t[0].attempt_ms, Some(10.0), "timed from the last attempt");
        assert_eq!(t[0].durable_ms, None, "no completed event");
        assert_eq!(t[1].attempt_ms, Some(37.0));
        assert_eq!(t[2].queue_wait_ms, None);
        assert_eq!(t[2].attempts, 0);
        let lat: Vec<f64> = t.iter().map(|t| t.latency_ms).collect();
        assert_eq!(crate::stats::median(&lat), Some(f64::INFINITY));
    }
}
