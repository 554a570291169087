//! Deterministic, seed-scheduled chaos injection (DESIGN.md §16).
//!
//! The engine's only fault-injection layer. Tests pin single faults with
//! the deterministic keys (`panic_at`, `cancel_at`, `stall=1`); soak
//! testing a long-running service needs faults that arrive *randomly yet
//! reproducibly* across thousands of iterations, IO operations, and
//! retry attempts. Both are one schedule:
//!
//! * every potential fault site is addressed by a stable coordinate
//!   (site, run, iteration, attempt),
//! * whether a fault fires at a coordinate is a *pure function* of the
//!   schedule seed and the coordinate (a splitmix64 hash against a
//!   probability threshold) — no RNG state, no call-order dependence,
//! * every fired fault is appended to an in-memory event log, so a soak
//!   run can print the exact sequence it experienced and a replay with
//!   the same spec reproduces it byte for byte.
//!
//! Because decisions are coordinate-hashed rather than drawn from a
//! stream, parallel execution cannot perturb the schedule: iteration 17
//! of run 3 panics (or not) regardless of which thread reaches it first
//! or in what order. Only the *log order* can vary under outer-loop
//! parallelism; serial runs log in execution order.
//!
//! The schedule is configured with a compact spec string (CLI `--chaos`,
//! env [`CHAOS_ENV`]):
//!
//! ```text
//! seed=7,panic=0.05,io=0.1,stall=0.2,stall_ms=5,squeeze=0.25
//! ```
//!
//! | key           | meaning                                                    |
//! |---------------|------------------------------------------------------------|
//! | `seed=U`      | schedule seed (default 0)                                  |
//! | `panic=P`     | per-(run,iteration,attempt) worker panic probability       |
//! | `panic_at=N`  | always panic the first attempt of iteration N of run 0     |
//! | `cancel_at=N` | cancel the run's token right before iteration N of run 0   |
//! | `io=P`        | per-operation injected IO error probability (all sites)    |
//! | `io_ckpt=P`   | checkpoint-save override                                   |
//! | `io_graph=P`  | graph-load override                                        |
//! | `io_result=P` | result-write override                                      |
//! | `stall=P`     | per-(run,iteration) DP stall probability                   |
//! | `stall_ms=M`  | stall duration in milliseconds (default 10)                |
//! | `squeeze=P`   | per-run memory-budget squeeze probability                  |
//! | `squeeze_shift=S` | squeeze divides the budget by `2^S` (default 1, below the `usize` bit width) |

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Environment variable consulted by [`Chaos::from_env`].
pub const CHAOS_ENV: &str = "FASCIA_CHAOS";

/// Where an injected IO error strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoSite {
    /// A checkpoint flush inside the engine.
    CheckpointSave,
    /// Loading a graph into the service's pool.
    GraphLoad,
    /// Writing a job result document.
    ResultWrite,
}

impl IoSite {
    /// Stable lower-case name (used in event-log lines).
    pub fn name(&self) -> &'static str {
        match self {
            IoSite::CheckpointSave => "ckpt",
            IoSite::GraphLoad => "graph",
            IoSite::ResultWrite => "result",
        }
    }
}

/// Parsed chaos schedule parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSpec {
    /// Schedule seed: same seed + same coordinates ⇒ same faults.
    pub seed: u64,
    /// Worker-panic probability per (run, iteration, attempt).
    pub panic_prob: f64,
    /// Deterministic single panic: first attempt of this iteration of
    /// run 0 (the retry runs clean), exercising panic isolation.
    pub panic_at: Option<usize>,
    /// Deterministic cancellation: cancel the run's token right before
    /// this iteration of run 0, exercising mid-run cancellation and the
    /// final checkpoint flush.
    pub cancel_at: Option<usize>,
    /// Injected-IO-error probability per operation, per site.
    pub io_ckpt_prob: f64,
    /// See [`ChaosSpec::io_ckpt_prob`].
    pub io_graph_prob: f64,
    /// See [`ChaosSpec::io_ckpt_prob`].
    pub io_result_prob: f64,
    /// DP-stall probability per (run, iteration).
    pub stall_prob: f64,
    /// How long a fired stall sleeps.
    pub stall: Duration,
    /// Memory-budget squeeze probability per run.
    pub squeeze_prob: f64,
    /// A fired squeeze divides the budget by `2^squeeze_shift`; the
    /// parser keeps it below `usize::BITS`.
    pub squeeze_shift: u32,
}

impl Default for ChaosSpec {
    fn default() -> Self {
        Self {
            seed: 0,
            panic_prob: 0.0,
            panic_at: None,
            cancel_at: None,
            io_ckpt_prob: 0.0,
            io_graph_prob: 0.0,
            io_result_prob: 0.0,
            stall_prob: 0.0,
            stall: Duration::from_millis(10),
            squeeze_prob: 0.0,
            squeeze_shift: 1,
        }
    }
}

/// A chaos spec string that could not be parsed; the payload names the
/// offending `key=value` pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosParseError(pub String);

impl std::fmt::Display for ChaosParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid chaos spec: {}", self.0)
    }
}

impl std::error::Error for ChaosParseError {}

impl std::str::FromStr for ChaosSpec {
    type Err = ChaosParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut spec = ChaosSpec::default();
        for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| ChaosParseError(format!("{part:?} is not key=value")))?;
            let bad = || ChaosParseError(format!("{part:?} has an unusable value"));
            let prob = || -> Result<f64, ChaosParseError> {
                let p: f64 = value.parse().map_err(|_| bad())?;
                if (0.0..=1.0).contains(&p) {
                    Ok(p)
                } else {
                    Err(ChaosParseError(format!(
                        "{part:?}: probability must be in [0, 1]"
                    )))
                }
            };
            match key.trim() {
                "seed" => spec.seed = value.parse().map_err(|_| bad())?,
                "panic" => spec.panic_prob = prob()?,
                "panic_at" => spec.panic_at = Some(value.parse().map_err(|_| bad())?),
                "cancel_at" => spec.cancel_at = Some(value.parse().map_err(|_| bad())?),
                "io" => {
                    let p = prob()?;
                    spec.io_ckpt_prob = p;
                    spec.io_graph_prob = p;
                    spec.io_result_prob = p;
                }
                "io_ckpt" => spec.io_ckpt_prob = prob()?,
                "io_graph" => spec.io_graph_prob = prob()?,
                "io_result" => spec.io_result_prob = prob()?,
                "stall" => spec.stall_prob = prob()?,
                "stall_ms" => spec.stall = Duration::from_millis(value.parse().map_err(|_| bad())?),
                "squeeze" => spec.squeeze_prob = prob()?,
                // The engine shifts a `usize` budget by it.
                "squeeze_shift" => {
                    let shift = value.parse().ok().filter(|&s| s < usize::BITS);
                    spec.squeeze_shift = shift.ok_or_else(bad)?;
                }
                other => {
                    return Err(ChaosParseError(format!("unknown key {other:?}")));
                }
            }
        }
        Ok(spec)
    }
}

/// Per-site salts keep the decision streams independent: a seed that
/// panics iteration 7 says nothing about whether iteration 7 stalls.
const SALT_PANIC: u64 = 0x8C5F_1A2B_3C4D_5E6F;
const SALT_IO_CKPT: u64 = 0x1357_9BDF_2468_ACE0;
const SALT_IO_GRAPH: u64 = 0xFEDC_BA98_7654_3210;
const SALT_IO_RESULT: u64 = 0x0F1E_2D3C_4B5A_6978;
const SALT_STALL: u64 = 0xA5A5_A5A5_5A5A_5A5A;
const SALT_SQUEEZE: u64 = 0xC3C3_3C3C_C3C3_3C3C;

/// splitmix64 finalizer: a high-quality 64-bit mix, the standard choice
/// for turning structured coordinates into uniform bits.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Whether the coordinate-addressed fault fires: hash the coordinates
/// into a uniform u64 and compare against the probability threshold.
fn fires(seed: u64, salt: u64, coords: &[u64], prob: f64) -> bool {
    if prob <= 0.0 {
        return false;
    }
    if prob >= 1.0 {
        return true;
    }
    let mut h = splitmix64(seed ^ salt);
    for &c in coords {
        h = splitmix64(h ^ c);
    }
    // Top 53 bits → uniform in [0, 1); exact and portable.
    ((h >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < prob
}

/// A live chaos schedule: the parsed spec plus a run counter and the
/// fired-event log. One instance is shared (via `Arc`) by every run it
/// supervises; each engine run claims a fresh run index with
/// [`Chaos::begin_run`], so a retried job rolls new fault coordinates
/// (that is what makes injected faults *transient*).
#[derive(Debug)]
pub struct Chaos {
    spec: ChaosSpec,
    runs: AtomicU64,
    log: Mutex<Vec<String>>,
}

impl Chaos {
    /// A schedule from parsed parameters.
    pub fn new(spec: ChaosSpec) -> Self {
        Self {
            spec,
            runs: AtomicU64::new(0),
            log: Mutex::new(Vec::new()),
        }
    }

    /// Parses the [`CHAOS_ENV`] variable; `Ok(None)` when unset or empty.
    pub fn from_env() -> Result<Option<Self>, ChaosParseError> {
        match std::env::var(CHAOS_ENV) {
            Ok(s) if !s.trim().is_empty() => Ok(Some(Self::new(s.parse()?))),
            _ => Ok(None),
        }
    }

    /// The schedule parameters.
    pub fn spec(&self) -> &ChaosSpec {
        &self.spec
    }

    /// Claims the next run index. The engine calls this once per counting
    /// run; services submit jobs in a deterministic order, so run indices
    /// (and therefore the whole schedule) replay identically.
    pub fn begin_run(self: &std::sync::Arc<Self>) -> ChaosRun {
        ChaosRun {
            chaos: self.clone(),
            run: self.runs.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Every fault fired so far, in firing order (stable for serial
    /// execution). Each line is `site run=R [iter=I] [attempt=A]`.
    pub fn events(&self) -> Vec<String> {
        self.log.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    fn record(&self, line: String) {
        self.log
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(line);
    }
}

/// One engine run's view of the schedule: the shared [`Chaos`] plus this
/// run's claimed index. Cheap to clone into worker closures.
#[derive(Debug, Clone)]
pub struct ChaosRun {
    chaos: std::sync::Arc<Chaos>,
    run: u64,
}

impl ChaosRun {
    /// This run's index in the schedule.
    pub fn run_index(&self) -> u64 {
        self.run
    }

    /// Whether the worker should panic at (iteration, attempt). Attempt 0
    /// is the first execution, attempt 1 the engine's in-place retry.
    pub fn should_panic(&self, iteration: usize, attempt: u32) -> bool {
        let s = &self.chaos.spec;
        let fired = (s.panic_at == Some(iteration) && self.run == 0 && attempt == 0)
            || fires(
                s.seed,
                SALT_PANIC,
                &[self.run, iteration as u64, attempt as u64],
                s.panic_prob,
            );
        if fired {
            self.chaos.record(format!(
                "panic run={} iter={iteration} attempt={attempt}",
                self.run
            ));
        }
        fired
    }

    /// Whether to cancel the run right before `iteration` (`cancel_at`,
    /// run 0 only).
    pub fn should_cancel(&self, iteration: usize) -> bool {
        let fired = self.chaos.spec.cancel_at == Some(iteration) && self.run == 0;
        if fired {
            self.chaos
                .record(format!("cancel run={} iter={iteration}", self.run));
        }
        fired
    }

    /// An injected IO error for this operation, if the schedule says so.
    /// `op` distinguishes successive operations at the same site within a
    /// run (e.g. the engine passes the checkpoint flush ordinal).
    pub fn io_error(&self, site: IoSite, op: u64) -> Option<std::io::Error> {
        let s = &self.chaos.spec;
        let (salt, prob) = match site {
            IoSite::CheckpointSave => (SALT_IO_CKPT, s.io_ckpt_prob),
            IoSite::GraphLoad => (SALT_IO_GRAPH, s.io_graph_prob),
            IoSite::ResultWrite => (SALT_IO_RESULT, s.io_result_prob),
        };
        if !fires(s.seed, salt, &[self.run, op], prob) {
            return None;
        }
        self.chaos
            .record(format!("io.{} run={} op={op}", site.name(), self.run));
        Some(std::io::Error::other(format!(
            "injected chaos io fault (site {}, run {}, op {op})",
            site.name(),
            self.run
        )))
    }

    /// How long the DP should stall in this iteration (`None` = no stall).
    pub fn dp_stall(&self, iteration: usize) -> Option<Duration> {
        let s = &self.chaos.spec;
        if !fires(
            s.seed,
            SALT_STALL,
            &[self.run, iteration as u64],
            s.stall_prob,
        ) {
            return None;
        }
        self.chaos
            .record(format!("stall run={} iter={iteration}", self.run));
        Some(s.stall)
    }

    /// Right-shift to apply to the run's memory budget (0 = no squeeze).
    pub fn budget_squeeze_shift(&self) -> u32 {
        let s = &self.chaos.spec;
        if !fires(s.seed, SALT_SQUEEZE, &[self.run], s.squeeze_prob) {
            return 0;
        }
        self.chaos.record(format!(
            "squeeze run={} shift={}",
            self.run, s.squeeze_shift
        ));
        s.squeeze_shift
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn spec(s: &str) -> ChaosSpec {
        s.parse().unwrap()
    }

    #[test]
    fn parses_full_spec() {
        let s = spec(
            "seed=7, panic=0.05, panic_at=2, cancel_at=4, io=0.1, stall=0.2, stall_ms=5, squeeze=0.25",
        );
        assert_eq!(s.seed, 7);
        assert_eq!(s.panic_prob, 0.05);
        assert_eq!(s.panic_at, Some(2));
        assert_eq!(s.cancel_at, Some(4));
        assert_eq!(s.io_ckpt_prob, 0.1);
        assert_eq!(s.io_graph_prob, 0.1);
        assert_eq!(s.io_result_prob, 0.1);
        assert_eq!(s.stall_prob, 0.2);
        assert_eq!(s.stall, Duration::from_millis(5));
        assert_eq!(s.squeeze_prob, 0.25);
        assert_eq!(s.squeeze_shift, 1);
        // Site-specific overrides layer over the blanket `io=`.
        let s = spec("io=0.5,io_ckpt=0.9");
        assert_eq!(s.io_ckpt_prob, 0.9);
        assert_eq!(s.io_graph_prob, 0.5);
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "nonsense",
            "panic",
            "panic=1.5",
            "panic=-0.1",
            "seed=x",
            "unknown=1",
            "stall_ms=-4",
            "cancel_at=x",
            "squeeze_shift=64",
        ] {
            assert!(bad.parse::<ChaosSpec>().is_err(), "accepted {bad:?}");
        }
        assert_eq!(spec("squeeze_shift=63").squeeze_shift, 63);
        // Empty segments and whitespace are tolerated.
        assert_eq!(spec(""), ChaosSpec::default());
        assert_eq!(spec(" , "), ChaosSpec::default());
    }

    #[test]
    fn decisions_are_pure_functions_of_coordinates() {
        let a = Arc::new(Chaos::new(spec(
            "seed=42,panic=0.3,io=0.3,stall=0.3,squeeze=0.5",
        )));
        let b = Arc::new(Chaos::new(spec(
            "seed=42,panic=0.3,io=0.3,stall=0.3,squeeze=0.5",
        )));
        for _ in 0..4 {
            let (ra, rb) = (a.begin_run(), b.begin_run());
            assert_eq!(ra.budget_squeeze_shift(), rb.budget_squeeze_shift());
            for i in 0..50 {
                assert_eq!(ra.should_panic(i, 0), rb.should_panic(i, 0));
                assert_eq!(ra.should_panic(i, 1), rb.should_panic(i, 1));
                assert_eq!(ra.dp_stall(i).is_some(), rb.dp_stall(i).is_some());
                assert_eq!(
                    ra.io_error(IoSite::CheckpointSave, i as u64).is_some(),
                    rb.io_error(IoSite::CheckpointSave, i as u64).is_some()
                );
            }
        }
        // Byte-for-byte replay: identical event logs.
        assert_eq!(a.events(), b.events());
        assert!(!a.events().is_empty(), "0.3 over 200 rolls must fire");
    }

    #[test]
    fn seeds_change_the_schedule_and_runs_are_independent() {
        let a = Arc::new(Chaos::new(spec("seed=1,panic=0.5")));
        let b = Arc::new(Chaos::new(spec("seed=2,panic=0.5")));
        let (ra, rb) = (a.begin_run(), b.begin_run());
        let da: Vec<bool> = (0..64).map(|i| ra.should_panic(i, 0)).collect();
        let db: Vec<bool> = (0..64).map(|i| rb.should_panic(i, 0)).collect();
        assert_ne!(da, db, "different seeds should disagree somewhere");
        // A second run of the same schedule rolls fresh coordinates, so a
        // fault that fired in run 0 is transient, not permanent.
        let ra2 = a.begin_run();
        let da2: Vec<bool> = (0..64).map(|i| ra2.should_panic(i, 0)).collect();
        assert_ne!(da, da2, "run index must enter the hash");
    }

    #[test]
    fn panic_at_is_deterministic_and_first_attempt_only() {
        let c = Arc::new(Chaos::new(spec("panic_at=3")));
        let r = c.begin_run();
        assert!(r.should_panic(3, 0));
        assert!(!r.should_panic(3, 1), "the retry runs clean");
        assert!(!r.should_panic(2, 0));
        let r1 = c.begin_run();
        assert!(!r1.should_panic(3, 0), "panic_at applies to run 0 only");
    }

    #[test]
    fn cancel_at_is_run_zero_only() {
        let c = Arc::new(Chaos::new(spec("cancel_at=4")));
        let r = c.begin_run();
        assert!(!r.should_cancel(3));
        assert!(r.should_cancel(4));
        let r1 = c.begin_run();
        assert!(!r1.should_cancel(4), "cancel_at applies to run 0 only");
        assert_eq!(c.events(), ["cancel run=0 iter=4"]);
    }

    #[test]
    fn zero_and_one_probabilities_are_exact() {
        let never = Arc::new(Chaos::new(ChaosSpec::default())).begin_run();
        let always = Arc::new(Chaos::new(spec("stall=1,panic=1"))).begin_run();
        for i in 0..100 {
            assert!(!never.should_panic(i, 0));
            assert!(never.dp_stall(i).is_none());
            assert!(never.io_error(IoSite::GraphLoad, i as u64).is_none());
            assert!(always.should_panic(i, 0));
            assert!(always.dp_stall(i).is_some());
        }
    }

    #[test]
    fn from_env_roundtrip() {
        // Serialized env access: tests in this module run in one process.
        std::env::remove_var(CHAOS_ENV);
        assert!(Chaos::from_env().unwrap().is_none());
        std::env::set_var(CHAOS_ENV, "seed=9,panic=0.1");
        let c = Chaos::from_env().unwrap().unwrap();
        assert_eq!(c.spec().seed, 9);
        std::env::set_var(CHAOS_ENV, "garbage");
        assert!(Chaos::from_env().is_err());
        std::env::remove_var(CHAOS_ENV);
    }
}
