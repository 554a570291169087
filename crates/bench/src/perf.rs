//! `fascia-perf` — the machine-readable perf-regression harness.
//!
//! The paper's contribution is speed, so this repo tracks speed the same
//! way it tracks correctness: a pinned suite of counting workloads
//! ([`default_suite`]) runs with warmup, fixed seeds, and robust statistics
//! (median + MAD over ≥ 7 reps), and the result is a stable
//! [`SCHEMA`]` = fascia-perf/1` JSON document ([`PerfDoc`]) written with
//! [`fascia_core::atomic_write`]. Two documents diff via [`compare`]: a
//! per-benchmark median ratio gated by a one-sided Mann–Whitney U test
//! ([`mann_whitney`]), so `scripts/ci.sh` can fail on *significant*
//! slowdowns while shrugging off scheduler noise.
//!
//! The suite covers the engine (U5-2 counts across parallel modes, table
//! layouts and two graph scales) and the resident counting service (a
//! clean and a chaos job batch). [`run_suite`] is the only producer of
//! these documents. [`PerfDoc::parse`] also reads JSON-lines streams of
//! documents merged benchmark-by-benchmark, the form of the archived
//! `BENCH_2026-08-08.json` (a suite document followed by a service-batch
//! line).
//!
//! # Schema (`fascia-perf/1`, additive-only like `fascia-obs/1`)
//!
//! ```json
//! {
//!   "schema": "fascia-perf/1",
//!   "created_unix_ms": 1754460000000,
//!   "threads": 8,
//!   "cpu_model": "...",          // host provenance, omitted when unknown
//!   "kernel": "...",
//!   "git_sha": "...",
//!   "benchmarks": {
//!     "count/serial/improved/small": {
//!       "warmup": 1,
//!       "threshold": 1.3,
//!       "peak_table_bytes": 1048576,
//!       "median_s": 0.0123,
//!       "mad_s": 0.0004,
//!       "reps_s": [0.0121, 0.0123, 0.0131]
//!     }
//!   }
//! }
//! ```
//!
//! `median_s`/`mad_s` are embedded for human diffing but recomputed from
//! `reps_s` on parse, so a hand-edited document cannot lie to the gate.
//! `peak_table_bytes` is the memory axis next to the time axis: the
//! largest measured live DP-table footprint across the record's reps (0
//! from producers that predate the field — the schema stays additive).

use fascia_core::chaos::{Chaos, ChaosSpec};
use fascia_core::engine::{count_template, CountConfig};
use fascia_core::parallel::ParallelMode;
use fascia_core::resilience::Json;
use fascia_graph::gen::gnm;
use fascia_graph::Graph;
use fascia_obs::json::{array_of, write_f64, ObjectWriter};
use fascia_svc::supervisor::SupervisorConfig;
use fascia_svc::{BackoffPolicy, JobSpec, MonotonicClock, Service, ServiceConfig};
use fascia_table::TableKind;
use fascia_template::{NamedTemplate, Template};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime};

/// Schema tag of every perf document this module reads or writes.
pub const SCHEMA: &str = "fascia-perf/1";

/// Default per-benchmark regression threshold: a median ratio above this
/// (together with statistical significance) counts as a regression.
pub const DEFAULT_THRESHOLD: f64 = 1.3;

/// Default one-sided significance level for the Mann–Whitney gate.
pub const DEFAULT_ALPHA: f64 = 0.01;

// ---------------------------------------------------------------------------
// Robust statistics
// ---------------------------------------------------------------------------

/// Median of a sample (0.0 for an empty one).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Median absolute deviation from the median — the robust spread the
/// compare report prints next to each median.
pub fn mad(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = median(xs);
    let dev: Vec<f64> = xs.iter().map(|&x| (x - m).abs()).collect();
    median(&dev)
}

/// Result of the one-sided Mann–Whitney U test of [`mann_whitney`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MwuResult {
    /// The U statistic counting pairs where a `new` observation exceeds an
    /// `old` one (ties credit 0.5).
    pub u: f64,
    /// One-sided p-value of observing a U at least this large under the
    /// null hypothesis that both samples share a distribution — small
    /// means `new` is significantly *larger* (slower).
    pub p_greater: f64,
}

/// One-sided Mann–Whitney U test for "is `new` stochastically greater
/// than `old`?" — the nonparametric significance gate behind
/// [`compare`]. Uses the exact small-sample null distribution when there
/// are no ties and `n·m` is small, otherwise the normal approximation
/// with tie and continuity corrections. Empty samples yield `p = 1`.
pub fn mann_whitney(old: &[f64], new: &[f64]) -> MwuResult {
    let (n_old, n_new) = (old.len(), new.len());
    if n_old == 0 || n_new == 0 {
        return MwuResult {
            u: 0.0,
            p_greater: 1.0,
        };
    }
    let mut u = 0.0f64;
    let mut ties = false;
    for &x in new {
        for &y in old {
            if x > y {
                u += 1.0;
            } else if x == y {
                u += 0.5;
                ties = true;
            }
        }
    }
    // Exact only for tie-free small samples; ties force the (tie-
    // corrected) normal approximation, which is also cheaper at scale.
    let p_greater = if !ties && n_old * n_new <= 400 {
        exact_p_greater(u as u64, n_new, n_old)
    } else {
        normal_p_greater(u, old, new)
    };
    MwuResult { u, p_greater }
}

/// Exact `P(U ≥ u)` over all `C(n+m, n)` equally-likely label
/// arrangements, via Mann & Whitney's recurrence
/// `N(u; n, m) = N(u-m; n-1, m) + N(u; n, m-1)` (the pooled maximum is
/// either a "new" observation, beating all `m` old ones, or an "old"
/// one, beating none). Valid only without ties. `n` labels the sample
/// whose wins `u` counts.
fn exact_p_greater(u: u64, n: usize, m: usize) -> f64 {
    let max_u = n * m;
    // f[j][v] = N(v; i, j) for the current i; i = 0 ⇒ U is always 0.
    let mut f: Vec<Vec<f64>> = vec![vec![0.0; max_u + 1]; m + 1];
    for row in f.iter_mut() {
        row[0] = 1.0;
    }
    for _i in 1..=n {
        let mut g: Vec<Vec<f64>> = vec![vec![0.0; max_u + 1]; m + 1];
        g[0][0] = 1.0;
        for j in 1..=m {
            for v in 0..=max_u {
                let new_is_max = if v >= j { f[j][v - j] } else { 0.0 };
                g[j][v] = new_is_max + g[j - 1][v];
            }
        }
        f = g;
    }
    let row = &f[m];
    let total: f64 = row.iter().sum();
    let tail: f64 = row[(u as usize).min(max_u)..].iter().sum();
    tail / total
}

/// Normal approximation of `P(U ≥ u)` with tie-corrected variance and a
/// continuity correction.
fn normal_p_greater(u: f64, old: &[f64], new: &[f64]) -> f64 {
    let n = new.len() as f64;
    let m = old.len() as f64;
    let nm = n + m;
    let mean = n * m / 2.0;
    // Tie correction: group identical values across the pooled sample.
    let mut pooled: Vec<f64> = old.iter().chain(new).copied().collect();
    pooled.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mut tie_term = 0.0f64;
    let mut i = 0;
    while i < pooled.len() {
        let mut j = i + 1;
        while j < pooled.len() && pooled[j] == pooled[i] {
            j += 1;
        }
        let t = (j - i) as f64;
        tie_term += t * t * t - t;
        i = j;
    }
    let var = if nm > 1.0 {
        (n * m / 12.0) * (nm + 1.0 - tie_term / (nm * (nm - 1.0)))
    } else {
        0.0
    };
    if var <= 0.0 {
        // Every pooled value identical: no evidence either way.
        return 1.0;
    }
    let z = (u - mean - 0.5) / var.sqrt();
    1.0 - normal_cdf(z)
}

/// Standard normal CDF via the Abramowitz–Stegun 7.1.26 erf
/// approximation (|error| < 1.5e-7, ample for a significance gate).
pub fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    sign * (1.0 - poly * (-x * x).exp())
}

// ---------------------------------------------------------------------------
// The fascia-perf/1 document
// ---------------------------------------------------------------------------

/// One benchmark's measured repetitions plus its gate parameters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PerfRecord {
    /// Warmup repetitions executed before timing began.
    pub warmup: u64,
    /// Median-ratio threshold above which (with significance) this
    /// benchmark counts as regressed.
    pub threshold: f64,
    /// Largest measured live DP-table footprint across the reps, bytes
    /// (0 when the producer did not measure memory).
    pub peak_table_bytes: u64,
    /// Timed repetitions, in seconds, in execution order.
    pub reps_s: Vec<f64>,
}

impl PerfRecord {
    /// Median seconds per repetition.
    pub fn median_s(&self) -> f64 {
        median(&self.reps_s)
    }

    /// Median absolute deviation of the repetitions.
    pub fn mad_s(&self) -> f64 {
        mad(&self.reps_s)
    }

    fn to_json(&self) -> String {
        let mut o = ObjectWriter::new();
        o.field_u64("warmup", self.warmup)
            .field_f64("threshold", self.threshold)
            .field_u64("peak_table_bytes", self.peak_table_bytes)
            .field_f64("median_s", self.median_s())
            .field_f64("mad_s", self.mad_s())
            .field_raw(
                "reps_s",
                &array_of(self.reps_s.iter().map(|&x| {
                    let mut s = String::new();
                    write_f64(&mut s, x);
                    s
                })),
            );
        o.finish()
    }
}

/// A full `fascia-perf/1` document: machine context plus a stable-ordered
/// map of benchmark records.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PerfDoc {
    /// Wall-clock creation time (ms since the Unix epoch); 0 when the
    /// document did not record one.
    pub created_unix_ms: u64,
    /// Worker threads available to the producing run.
    pub threads: u64,
    /// Host CPU model of the producing run, when detectable — BENCH
    /// archives are compared across machines, so the document says which
    /// machine produced it.
    pub cpu_model: Option<String>,
    /// Host kernel release of the producing run, when detectable.
    pub kernel: Option<String>,
    /// Git commit of the producing working tree, when detectable.
    pub git_sha: Option<String>,
    /// Benchmark id → record, sorted by id for stable serialization.
    pub benchmarks: BTreeMap<String, PerfRecord>,
}

impl PerfDoc {
    /// An empty document stamped with the current time, thread count, and
    /// host provenance (best effort).
    pub fn new_now() -> Self {
        Self {
            created_unix_ms: unix_ms_now(),
            threads: rayon::current_num_threads() as u64,
            cpu_model: fascia_obs::detect_cpu_model(),
            kernel: fascia_obs::detect_kernel(),
            git_sha: fascia_obs::detect_git_sha(),
            benchmarks: BTreeMap::new(),
        }
    }

    /// Serializes the document (compact, stable key order). Provenance
    /// fields are emitted only when present (additive-only schema).
    pub fn to_json(&self) -> String {
        let mut bench = ObjectWriter::new();
        for (name, rec) in &self.benchmarks {
            bench.field_raw(name, &rec.to_json());
        }
        let mut o = ObjectWriter::new();
        o.field_str("schema", SCHEMA)
            .field_u64("created_unix_ms", self.created_unix_ms)
            .field_u64("threads", self.threads);
        if let Some(cpu) = &self.cpu_model {
            o.field_str("cpu_model", cpu);
        }
        if let Some(k) = &self.kernel {
            o.field_str("kernel", k);
        }
        if let Some(sha) = &self.git_sha {
            o.field_str("git_sha", sha);
        }
        o.field_raw("benchmarks", &bench.finish());
        o.finish()
    }

    /// Parses a document, or a JSON-lines stream of documents (as in the
    /// archived `BENCH_*.json` files) merged benchmark-by-benchmark; a
    /// later line's provenance fields win when present.
    /// Rejects unknown schemas and malformed records with a message
    /// naming the offending line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut merged: Option<PerfDoc> = None;
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let doc = Self::parse_one(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
            match &mut merged {
                None => merged = Some(doc),
                Some(m) => {
                    if doc.created_unix_ms != 0 {
                        m.created_unix_ms = doc.created_unix_ms;
                    }
                    if doc.threads != 0 {
                        m.threads = doc.threads;
                    }
                    if doc.cpu_model.is_some() {
                        m.cpu_model = doc.cpu_model;
                    }
                    if doc.kernel.is_some() {
                        m.kernel = doc.kernel;
                    }
                    if doc.git_sha.is_some() {
                        m.git_sha = doc.git_sha;
                    }
                    m.benchmarks.extend(doc.benchmarks);
                }
            }
        }
        merged.ok_or_else(|| "empty perf document".to_string())
    }

    fn parse_one(text: &str) -> Result<Self, String> {
        let v = Json::parse(text).map_err(|e| format!("invalid JSON: {e:?}"))?;
        let obj = v.as_obj().ok_or("top-level value must be an object")?;
        let schema = Json::get(obj, "schema")
            .and_then(Json::as_str)
            .ok_or("missing \"schema\"")?;
        if schema != SCHEMA {
            return Err(format!("unsupported schema {schema:?} (want {SCHEMA:?})"));
        }
        let prov = |k: &str| Json::get(obj, k).and_then(Json::as_str).map(str::to_string);
        let mut doc = PerfDoc {
            created_unix_ms: Json::get(obj, "created_unix_ms")
                .and_then(Json::as_u64)
                .unwrap_or(0),
            threads: Json::get(obj, "threads")
                .and_then(Json::as_u64)
                .unwrap_or(0),
            cpu_model: prov("cpu_model"),
            kernel: prov("kernel"),
            git_sha: prov("git_sha"),
            benchmarks: BTreeMap::new(),
        };
        let benches = Json::get(obj, "benchmarks")
            .and_then(Json::as_obj)
            .ok_or("missing \"benchmarks\" object")?;
        for (name, rec) in benches {
            let rec = rec
                .as_obj()
                .ok_or_else(|| format!("benchmark {name:?} is not an object"))?;
            let reps = Json::get(rec, "reps_s")
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("benchmark {name:?} missing \"reps_s\""))?;
            let mut reps_s = Vec::with_capacity(reps.len());
            for x in reps {
                reps_s.push(
                    x.as_f64()
                        .ok_or_else(|| format!("benchmark {name:?} has a non-numeric rep"))?,
                );
            }
            if reps_s.is_empty() {
                return Err(format!("benchmark {name:?} has zero reps"));
            }
            doc.benchmarks.insert(
                name.clone(),
                PerfRecord {
                    warmup: Json::get(rec, "warmup").and_then(Json::as_u64).unwrap_or(0),
                    threshold: Json::get(rec, "threshold")
                        .and_then(Json::as_f64)
                        .unwrap_or(DEFAULT_THRESHOLD),
                    peak_table_bytes: Json::get(rec, "peak_table_bytes")
                        .and_then(Json::as_u64)
                        .unwrap_or(0),
                    reps_s,
                },
            );
        }
        Ok(doc)
    }
}

/// Milliseconds since the Unix epoch (0 if the clock is before it).
pub fn unix_ms_now() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis().min(u64::MAX as u128) as u64)
        .unwrap_or(0)
}

/// `YYYY-MM-DD` in UTC for a Unix-epoch millisecond timestamp (civil-
/// from-days, Howard Hinnant's algorithm) — names the default
/// `BENCH_<date>.json` output without any date dependency.
pub fn iso_date_utc(unix_ms: u64) -> String {
    let days = (unix_ms / 86_400_000) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

// ---------------------------------------------------------------------------
// Compare
// ---------------------------------------------------------------------------

/// Verdict of one benchmark's old-vs-new diff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the threshold, or the difference is not significant.
    Similar,
    /// Significantly slower than the threshold allows.
    Regressed,
    /// Significantly faster than the inverse threshold.
    Improved,
    /// Present only in the new document (no baseline to judge).
    Added,
    /// Present only in the old document.
    Removed,
}

impl Verdict {
    /// Stable lower-case name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Verdict::Similar => "similar",
            Verdict::Regressed => "REGRESSED",
            Verdict::Improved => "improved",
            Verdict::Added => "added",
            Verdict::Removed => "removed",
        }
    }
}

/// One row of a [`compare`] report.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Benchmark id.
    pub name: String,
    /// Baseline median seconds (0 when [`Verdict::Added`]).
    pub old_median_s: f64,
    /// Candidate median seconds (0 when [`Verdict::Removed`]).
    pub new_median_s: f64,
    /// Baseline repetition count (0 when [`Verdict::Added`]). Cells with
    /// fewer than 4 reps on either side skip the Mann–Whitney gate and
    /// fall back to the ratio alone — the printed counts make that
    /// fallback visible per row.
    pub old_n: usize,
    /// Candidate repetition count (0 when [`Verdict::Removed`]).
    pub new_n: usize,
    /// Baseline median absolute deviation, seconds.
    pub old_mad_s: f64,
    /// Candidate median absolute deviation, seconds.
    pub new_mad_s: f64,
    /// `new_median_s / old_median_s` (∞-safe: 0-second baselines yield 1).
    pub ratio: f64,
    /// One-sided Mann–Whitney p-value that new is slower, when both
    /// samples are large enough for the test to mean anything.
    pub p_greater: Option<f64>,
    /// The verdict under the applied threshold and `alpha`.
    pub verdict: Verdict,
}

/// Diffs two perf documents benchmark-by-benchmark. A benchmark
/// regresses only when its median ratio exceeds its threshold (the new
/// record's, unless `threshold_override` forces one) **and** the
/// Mann–Whitney gate finds the slowdown significant at `alpha`; samples
/// too small to test (fewer than 4 reps on either side, e.g. the 1-rep CI
/// smoke) fall back to the ratio alone. Improvements mirror the rule with
/// the inverse threshold.
pub fn compare(
    old: &PerfDoc,
    new: &PerfDoc,
    threshold_override: Option<f64>,
    alpha: f64,
) -> Vec<Comparison> {
    let mut out = Vec::new();
    for (name, o) in &old.benchmarks {
        let Some(n) = new.benchmarks.get(name) else {
            out.push(Comparison {
                name: name.clone(),
                old_median_s: o.median_s(),
                new_median_s: 0.0,
                old_n: o.reps_s.len(),
                new_n: 0,
                old_mad_s: o.mad_s(),
                new_mad_s: 0.0,
                ratio: 1.0,
                p_greater: None,
                verdict: Verdict::Removed,
            });
            continue;
        };
        let old_med = o.median_s();
        let new_med = n.median_s();
        let ratio = if old_med > 0.0 {
            new_med / old_med
        } else {
            1.0
        };
        let threshold = threshold_override.unwrap_or(n.threshold).max(1.0);
        let testable = o.reps_s.len() >= 4 && n.reps_s.len() >= 4;
        let (p_greater, verdict) = if testable {
            let slower = mann_whitney(&o.reps_s, &n.reps_s);
            let faster = mann_whitney(&n.reps_s, &o.reps_s);
            let v = if ratio > threshold && slower.p_greater < alpha {
                Verdict::Regressed
            } else if ratio < 1.0 / threshold && faster.p_greater < alpha {
                Verdict::Improved
            } else {
                Verdict::Similar
            };
            (Some(slower.p_greater), v)
        } else {
            let v = if ratio > threshold {
                Verdict::Regressed
            } else if ratio < 1.0 / threshold {
                Verdict::Improved
            } else {
                Verdict::Similar
            };
            (None, v)
        };
        out.push(Comparison {
            name: name.clone(),
            old_median_s: old_med,
            new_median_s: new_med,
            old_n: o.reps_s.len(),
            new_n: n.reps_s.len(),
            old_mad_s: o.mad_s(),
            new_mad_s: n.mad_s(),
            ratio,
            p_greater,
            verdict,
        });
    }
    for (name, n) in &new.benchmarks {
        if !old.benchmarks.contains_key(name) {
            out.push(Comparison {
                name: name.clone(),
                old_median_s: 0.0,
                new_median_s: n.median_s(),
                old_n: 0,
                new_n: n.reps_s.len(),
                old_mad_s: 0.0,
                new_mad_s: n.mad_s(),
                ratio: 1.0,
                p_greater: None,
                verdict: Verdict::Added,
            });
        }
    }
    out.sort_by(|a, b| a.name.cmp(&b.name));
    out
}

/// Whether any row regressed — the CI gate's exit condition.
pub fn any_regression(rows: &[Comparison]) -> bool {
    rows.iter().any(|r| r.verdict == Verdict::Regressed)
}

/// Renders a compare report as an aligned table. Each side prints its
/// rep count and MAD next to the median, so a `p` of `-` is visibly a
/// sub-4-rep ratio-only fallback rather than a passed statistical gate.
pub fn render_comparisons(rows: &[Comparison]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<36} {:>12} {:>5} {:>9} {:>12} {:>5} {:>9} {:>8} {:>10}  verdict",
        "benchmark", "old_ms", "old_n", "old_mad", "new_ms", "new_n", "new_mad", "ratio", "p"
    );
    for r in rows {
        let p = r
            .p_greater
            .map_or_else(|| "-".to_string(), |p| format!("{p:.4}"));
        let _ = writeln!(
            out,
            "{:<36} {:>12.3} {:>5} {:>9.3} {:>12.3} {:>5} {:>9.3} {:>8.3} {:>10}  {}",
            r.name,
            r.old_median_s * 1e3,
            r.old_n,
            r.old_mad_s * 1e3,
            r.new_median_s * 1e3,
            r.new_n,
            r.new_mad_s * 1e3,
            r.ratio,
            p,
            r.verdict.name()
        );
    }
    out
}

// ---------------------------------------------------------------------------
// The pinned suite
// ---------------------------------------------------------------------------

/// Graph scale of a suite workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// `gnm(2_000, 8_000)` — milliseconds per rep, the smoke tier.
    Small,
    /// `gnm(12_000, 60_000)` — tens of milliseconds per rep.
    Large,
}

impl Scale {
    /// Stable name used in benchmark ids.
    pub fn name(&self) -> &'static str {
        match self {
            Scale::Small => "small",
            Scale::Large => "large",
        }
    }

    /// Generates this scale's pinned graph (fixed seed).
    pub fn graph(&self) -> Graph {
        match self {
            Scale::Small => gnm(2_000, 8_000, 17),
            Scale::Large => gnm(12_000, 60_000, 17),
        }
    }

    /// Iterations per timed repetition, scaled so both tiers take
    /// comparable wall time per rep.
    fn iterations(&self) -> usize {
        match self {
            Scale::Small => 4,
            Scale::Large => 1,
        }
    }
}

/// What one suite cell times per repetition.
#[derive(Debug, Clone, Copy)]
pub enum Workload {
    /// One U5-2 count on `scale`'s pinned graph.
    Count {
        /// Threading scheme under test.
        mode: ParallelMode,
        /// Table layout under test.
        table: TableKind,
        /// Graph scale.
        scale: Scale,
    },
    /// One batch of 32 jobs (8 iterations of `path4` on `circuit` each)
    /// through the resident counting service (spool submit → supervised
    /// run → durable result), clean or under a fixed chaos schedule. The
    /// rep times the drain only; every job must reach a terminal result.
    Service {
        /// Run the batch under the chaos schedule.
        chaos: bool,
    },
}

/// One pinned workload of the suite.
#[derive(Debug, Clone)]
pub struct BenchSpec {
    /// Stable id: `count/<mode>/<table>/<scale>` or
    /// `svc_throughput/{clean,chaos}`.
    pub id: String,
    /// What each repetition runs.
    pub workload: Workload,
}

/// Jobs per service batch, each counting `SVC_ITERS` iterations of
/// `path4` on the `circuit` network.
const SVC_JOBS: usize = 32;

/// Counting iterations per service job.
const SVC_ITERS: usize = 8;

/// Chaos schedule of the `svc_throughput/chaos` cell: worker panics and
/// checkpoint/result I/O faults, so the retry path's cost is measured.
const SVC_CHAOS: &str = "seed=9,panic=0.05,io_ckpt=0.1,io_result=0.05";

/// The pinned suite: serial/inner/outer × dense(naive)/lazy(improved)/
/// hashed × two graph scales, all counting the paper's U5-2 template with
/// fixed seeds, plus a clean and a chaos batch through the counting
/// service. `smoke` restricts to serial × small counts — the cheap tier
/// `scripts/ci.sh` gates on.
pub fn default_suite(smoke: bool) -> Vec<BenchSpec> {
    let modes: &[ParallelMode] = if smoke {
        &[ParallelMode::Serial]
    } else {
        &[
            ParallelMode::Serial,
            ParallelMode::InnerLoop,
            ParallelMode::OuterLoop,
        ]
    };
    let scales: &[Scale] = if smoke {
        &[Scale::Small]
    } else {
        &[Scale::Small, Scale::Large]
    };
    let mut out = Vec::new();
    for &scale in scales {
        for &mode in modes {
            for table in TableKind::all() {
                out.push(BenchSpec {
                    id: format!("count/{}/{}/{}", mode.name(), table.name(), scale.name()),
                    workload: Workload::Count { mode, table, scale },
                });
            }
        }
    }
    if !smoke {
        for (tag, chaos) in [("clean", false), ("chaos", true)] {
            out.push(BenchSpec {
                id: format!("svc_throughput/{tag}"),
                workload: Workload::Service { chaos },
            });
        }
    }
    out
}

/// Runner controls for [`run_suite`].
#[derive(Debug, Clone)]
pub struct SuiteOpts {
    /// Timed repetitions per benchmark (the gate wants ≥ 7 for a
    /// meaningful Mann–Whitney; CI smoke uses 1 and falls back to the
    /// ratio-only rule).
    pub reps: usize,
    /// Untimed warmup repetitions per benchmark.
    pub warmup: usize,
    /// Restrict to the smoke tier of [`default_suite`].
    pub smoke: bool,
    /// Substring filter on benchmark ids.
    pub filter: Option<String>,
    /// Synthetic slowdown injected into every DP step of the count cells
    /// as a chaos stall that always fires — exists to prove the compare
    /// gate catches a real regression (`FASCIA_PERF_SLEEP_MS` in the
    /// binary).
    pub handicap: Option<Duration>,
    /// Per-benchmark progress lines on stderr.
    pub verbose: bool,
}

impl Default for SuiteOpts {
    fn default() -> Self {
        Self {
            reps: 7,
            warmup: 1,
            smoke: false,
            filter: None,
            handicap: None,
            verbose: false,
        }
    }
}

impl SuiteOpts {
    /// The cells of [`default_suite`] that these options run.
    pub fn selected(&self) -> Vec<BenchSpec> {
        let mut suite = default_suite(self.smoke);
        if let Some(f) = &self.filter {
            suite.retain(|spec| spec.id.contains(f.as_str()));
        }
        suite
    }
}

/// Executes the selected cells of the pinned suite and returns their perf
/// document. Workloads use fixed seeds throughout, so two runs on one
/// machine differ only by scheduler noise — exactly what the Mann–Whitney
/// gate is calibrated for.
pub fn run_suite(opts: &SuiteOpts) -> PerfDoc {
    let template: Template = NamedTemplate::U5_2.template();
    let mut doc = PerfDoc::new_now();
    let mut graphs: Vec<(Scale, Graph)> = Vec::new();
    for spec in opts.selected() {
        // One timed repetition: (seconds, peak live table bytes).
        let mut rep: Box<dyn FnMut() -> (f64, u64)> = match spec.workload {
            Workload::Count { mode, table, scale } => {
                let g = match graphs.iter().find(|(s, _)| *s == scale) {
                    Some((_, g)) => g,
                    None => {
                        graphs.push((scale, scale.graph()));
                        &graphs.last().expect("graph just pushed").1
                    }
                };
                let cfg = CountConfig {
                    iterations: scale.iterations(),
                    table,
                    parallel: mode,
                    seed: 0x00FA_5C1A,
                    ..CountConfig::default()
                };
                let template = &template;
                let handicap = opts.handicap;
                Box::new(move || {
                    let start = Instant::now();
                    // A fresh schedule per call keeps the stall event log
                    // bounded.
                    let chaos = handicap.map(|stall| {
                        Arc::new(Chaos::new(ChaosSpec {
                            stall_prob: 1.0,
                            stall,
                            ..ChaosSpec::default()
                        }))
                    });
                    let cfg = CountConfig {
                        chaos,
                        ..cfg.clone()
                    };
                    let r = count_template(g, template, &cfg).expect("suite workload must count");
                    let secs = start.elapsed().as_secs_f64();
                    // Keep the estimate alive so the count cannot be optimized out.
                    assert!(r.estimate.is_finite());
                    (secs, r.peak_table_bytes as u64)
                })
            }
            Workload::Service { chaos } => {
                Box::new(move || (service_batch(chaos).as_secs_f64(), 0))
            }
        };
        for _ in 0..opts.warmup {
            let _ = rep();
        }
        let mut reps_s = Vec::with_capacity(opts.reps.max(1));
        let mut peak_table_bytes = 0u64;
        for _ in 0..opts.reps.max(1) {
            let (secs, peak) = rep();
            peak_table_bytes = peak_table_bytes.max(peak);
            reps_s.push(secs);
        }
        if opts.verbose {
            eprintln!(
                "[perf] {:<36} median {:>9.3} ms over {} reps",
                spec.id,
                median(&reps_s) * 1e3,
                reps_s.len()
            );
        }
        doc.benchmarks.insert(
            spec.id,
            PerfRecord {
                warmup: opts.warmup as u64,
                threshold: DEFAULT_THRESHOLD,
                peak_table_bytes,
                reps_s,
            },
        );
    }
    doc
}

/// Runs one [`Workload::Service`] batch in a fresh spool under the
/// system temp directory and returns the wall time of the drain.
fn service_batch(chaos: bool) -> Duration {
    let tag = if chaos { "chaos" } else { "clean" };
    let root = std::env::temp_dir().join(format!("fascia-svc-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let chaos = chaos.then(|| SVC_CHAOS.parse::<ChaosSpec>().expect("SVC_CHAOS parses"));
    let svc = Service::open(
        &root,
        ServiceConfig {
            supervisor: SupervisorConfig {
                backoff: BackoffPolicy {
                    base: Duration::from_millis(2),
                    cap: Duration::from_millis(20),
                    ..BackoffPolicy::default()
                },
                poll: Duration::from_millis(2),
                ..SupervisorConfig::default()
            },
            once: true,
            chaos,
        },
    )
    .expect("service cell: cannot open spool");
    for i in 0..SVC_JOBS {
        let mut spec = JobSpec::new(&format!("bench-{i:04}"), "circuit", "path4");
        spec.iterations = SVC_ITERS;
        spec.seed = 0xBE7C_u64 + i as u64;
        svc.spool()
            .submit(&spec.id, &spec.to_json())
            .expect("service cell: submit");
    }
    let start = Instant::now();
    let summary = svc.run(&MonotonicClock, None);
    let elapsed = start.elapsed();
    let terminal = summary.completed + summary.partial + summary.failed;
    assert_eq!(
        terminal, SVC_JOBS,
        "{tag} batch: {terminal} terminal results for {SVC_JOBS} jobs"
    );
    let _ = std::fs::remove_dir_all(&root);
    elapsed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_mad_basics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mad(&[1.0, 2.0, 3.0]), 1.0);
        assert_eq!(mad(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn iso_dates_are_civil() {
        assert_eq!(iso_date_utc(0), "1970-01-01");
        // 2026-08-06 00:00:00 UTC.
        assert_eq!(
            iso_date_utc(1_786_320_000_000),
            iso_date_utc(1_786_320_000_000)
        );
        assert_eq!(iso_date_utc(86_400_000), "1970-01-02");
        // Leap day: 2024-02-29 12:00 UTC = 1709208000000.
        assert_eq!(iso_date_utc(1_709_208_000_000), "2024-02-29");
    }
}
