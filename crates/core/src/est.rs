//! Estimator convergence & variance observability: the `fascia-est/1`
//! document.
//!
//! This is the fifth resolve-once instrumentation rail next to `metrics`
//! (how much), `trace` (when), `profile` (where time goes), and `mem`
//! (where memory goes): *how the estimate converges and where its
//! variance lives*. An [`EstCollector`] is attached to a run via
//! `CountConfig::est`; the engine then
//!
//! 1. feeds every finished iteration's scaled estimate into a bounded
//!    [`fascia_obs::IterLedger`] together with the running mean and
//!    relative CI (deterministic power-of-two downsampling keeps memory
//!    `O(cap)` regardless of the iteration budget), and
//! 2. decomposes each iteration's root-table total across two stratum
//!    taxonomies — per root-vertex color (the singleton colorset the
//!    root vertex drew this iteration) and per root-vertex degree class
//!    (log2 buckets) — maintaining one [`Welford`] accumulator per
//!    stratum, so the document can report which strata dominate the
//!    estimator's `std_error`.
//!
//! Rendering [`EstCollector::to_json`] produces the stable, additive-only
//! `fascia-est/1` document:
//!
//! ```json
//! {
//!   "schema": "fascia-est/1",
//!   "iterations": u64, "estimate": f64, "std_error": f64,
//!   "relative_ci95": f64|null,
//!   "target_epsilon": f64, "target_delta": f64, "adaptive": bool,
//!   "apriori_iterations": u64, "iterations_to_target": u64|null,
//!   "stalled": bool, "apriori_exhausted": bool,
//!   "ledger": { "cap": u64, "stride": u64, "offered": u64,
//!               "entries": [ { "iteration": u64, "estimate": f64,
//!                              "mean": f64, "rel_ci": f64|null }, ... ] },
//!   "strata": {
//!     "colorset":     { "covariance_pct": f64, "classes": [
//!         { "label": str, "n": u64, "mean": f64, "variance": f64,
//!           "share_pct": f64 }, ... ] },
//!     "degree_class": { ... same shape ... }
//!   }
//! }
//! ```
//!
//! Per-stratum `share_pct` is each stratum's variance as a percentage of
//! the *sum* of stratum variances within its taxonomy (so shares always
//! sum to ~100%); `covariance_pct` reports how much of the total
//! per-iteration variance that sum leaves unexplained (the cross-stratum
//! covariance residual, which can be negative).
//!
//! Like every observability rail here, the collector only observes: the
//! stratum capture re-reads the root table after aggregation and the
//! ledger is fed at the wave barrier, so counting results are bitwise
//! identical with the collector absent or attached.

use crate::stats::Welford;
use fascia_obs::est::{IterLedger, LedgerEntry, EST_SCHEMA};
use fascia_obs::json::{array_of, ObjectWriter};
use std::sync::{Arc, Mutex};

/// Default ledger retention cap (entries kept after downsampling).
pub const DEFAULT_LEDGER_CAP: usize = 512;

/// Stall heuristic: with iid per-iteration estimates, doubling the
/// iteration count shrinks the relative CI by √2 (to ~0.707×). A final
/// relative CI still above this fraction of its half-run value means the
/// trajectory has stopped improving on schedule.
const STALL_SHRINK_THRESHOLD: f64 = 0.9;

/// Fewest iterations before the stall heuristic is meaningful.
const STALL_MIN_ITERATIONS: u64 = 16;

/// Per-run context the engine resolves once (stop-rule targets and the
/// AYZ a-priori bound) so diagnostics can be computed at render time.
#[derive(Debug, Clone, Copy)]
struct RunContext {
    target_epsilon: f64,
    target_delta: f64,
    apriori_iterations: u64,
    adaptive: bool,
}

/// One iteration's root-table totals split across both stratum
/// taxonomies. Captured read-only inside the iteration, folded into the
/// collector in deterministic iteration order at the wave barrier.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct EstIterStrata {
    /// Root-table row sums grouped by the root vertex's color (its
    /// singleton colorset), indexed by color.
    pub by_colorset: Vec<f64>,
    /// Root-table row sums grouped by the root vertex's degree class.
    pub by_class: Vec<f64>,
}

#[derive(Debug)]
struct EstInner {
    ledger: IterLedger,
    total: Welford,
    by_colorset: Vec<Welford>,
    by_class: Vec<Welford>,
    context: Option<RunContext>,
}

/// Thread-safe estimator-convergence collector (see module docs).
///
/// Cheap to share via `Arc`; the engine records once per finished
/// iteration at the wave barrier (a short mutex outside the DP hot
/// loops), so attaching a collector does not perturb the DP itself.
#[derive(Debug)]
pub struct EstCollector {
    inner: Mutex<EstInner>,
}

impl Default for EstCollector {
    fn default() -> Self {
        Self::new()
    }
}

impl EstCollector {
    /// Creates a collector with the default ledger cap.
    pub fn new() -> Self {
        Self::with_ledger_cap(DEFAULT_LEDGER_CAP)
    }

    /// Creates a collector retaining at most `cap` ledger entries.
    pub fn with_ledger_cap(cap: usize) -> Self {
        Self {
            inner: Mutex::new(EstInner {
                ledger: IterLedger::new(cap),
                total: Welford::new(),
                by_colorset: Vec::new(),
                by_class: Vec::new(),
                context: None,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, EstInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Iterations recorded so far.
    pub fn iterations(&self) -> u64 {
        self.lock().total.count() as u64
    }

    fn set_context(&self, ctx: RunContext) {
        self.lock().context = Some(ctx);
    }

    fn record(
        &self,
        iteration: u64,
        estimate: f64,
        running_mean: f64,
        relative_ci: f64,
        strata: Option<&EstIterStrata>,
        scale: f64,
    ) {
        let mut inner = self.lock();
        inner.total.push(estimate);
        if let Some(s) = strata {
            if inner.by_colorset.len() < s.by_colorset.len() {
                inner
                    .by_colorset
                    .resize_with(s.by_colorset.len(), Welford::new);
            }
            for (w, &v) in inner.by_colorset.iter_mut().zip(&s.by_colorset) {
                w.push(v / scale);
            }
            if inner.by_class.len() < s.by_class.len() {
                inner.by_class.resize_with(s.by_class.len(), Welford::new);
            }
            for (w, &v) in inner.by_class.iter_mut().zip(&s.by_class) {
                w.push(v / scale);
            }
        }
        inner.ledger.offer(LedgerEntry {
            iteration,
            estimate,
            running_mean,
            relative_ci,
        });
    }

    /// Renders the `fascia-est/1` document.
    pub fn to_json(&self) -> String {
        let inner = self.lock();
        let n = inner.total.count() as u64;
        let mean = inner.total.mean();
        let rel_ci95 = if n >= 2 {
            inner.total.relative_ci(1.96)
        } else {
            f64::NAN
        };
        let (eps, delta, apriori, adaptive) = match inner.context {
            Some(c) => (
                c.target_epsilon,
                c.target_delta,
                c.apriori_iterations,
                c.adaptive,
            ),
            None => (0.05, 0.05, 0, false),
        };
        let to_target = if n >= 2 && mean != 0.0 {
            inner.total.stats().iterations_to_reach(eps)
        } else {
            None
        };
        let mut root = ObjectWriter::new();
        root.field_str("schema", EST_SCHEMA)
            .field_u64("iterations", n)
            .field_f64("estimate", if n > 0 { mean } else { f64::NAN })
            .field_f64("std_error", inner.total.std_error())
            .field_f64("relative_ci95", rel_ci95)
            .field_f64("target_epsilon", eps)
            .field_f64("target_delta", delta)
            .field_bool("adaptive", adaptive)
            .field_u64("apriori_iterations", apriori);
        match to_target {
            Some(it) => root.field_u64("iterations_to_target", it as u64),
            None => root.field_raw("iterations_to_target", "null"),
        };
        root.field_bool("stalled", stalled(&inner.ledger, n))
            .field_bool(
                "apriori_exhausted",
                apriori > 0 && n >= apriori && rel_ci95.is_finite() && rel_ci95 > eps,
            );
        let mut ledger = ObjectWriter::new();
        ledger
            .field_u64("cap", inner.ledger.cap() as u64)
            .field_u64("stride", inner.ledger.stride())
            .field_u64("offered", inner.ledger.offered())
            .field_raw(
                "entries",
                &array_of(inner.ledger.entries().iter().map(|e| {
                    let mut o = ObjectWriter::new();
                    o.field_u64("iteration", e.iteration)
                        .field_f64("estimate", e.estimate)
                        .field_f64("mean", e.running_mean)
                        .field_f64("rel_ci", e.relative_ci);
                    o.finish()
                })),
            );
        root.field_raw("ledger", &ledger.finish());
        let mut strata = ObjectWriter::new();
        strata.field_raw(
            "colorset",
            &taxonomy_json(&inner.by_colorset, inner.total.variance(), |i| {
                format!("cs{i}")
            }),
        );
        strata.field_raw(
            "degree_class",
            &taxonomy_json(&inner.by_class, inner.total.variance(), |i| {
                degree_class_label(i as u8)
            }),
        );
        root.field_raw("strata", &strata.finish());
        root.finish()
    }
}

/// Renders one taxonomy's stratum table: per-stratum variance shares
/// against the within-taxonomy variance sum, plus the covariance
/// residual against the total per-iteration variance.
fn taxonomy_json(
    strata: &[Welford],
    total_variance: f64,
    label: impl Fn(usize) -> String,
) -> String {
    let sum_var: f64 = strata.iter().map(Welford::variance).sum();
    let covariance_pct = if total_variance > 0.0 {
        (total_variance - sum_var) / total_variance * 100.0
    } else {
        0.0
    };
    let mut o = ObjectWriter::new();
    o.field_f64("covariance_pct", covariance_pct).field_raw(
        "classes",
        &array_of(strata.iter().enumerate().map(|(i, w)| {
            let share = if sum_var > 0.0 {
                w.variance() / sum_var * 100.0
            } else {
                0.0
            };
            let mut c = ObjectWriter::new();
            c.field_str("label", &label(i))
                .field_u64("n", w.count() as u64)
                .field_f64("mean", w.mean())
                .field_f64("variance", w.variance())
                .field_f64("share_pct", share);
            c.finish()
        })),
    );
    o.finish()
}

/// Stall detection over the ledger's relative-CI trajectory: compare the
/// final relative CI against the entry nearest half the run. With iid
/// samples the CI should have shrunk to ~0.707× by then; anything above
/// [`STALL_SHRINK_THRESHOLD`] flags a stalled trajectory.
fn stalled(ledger: &IterLedger, n: u64) -> bool {
    if n < STALL_MIN_ITERATIONS {
        return false;
    }
    let finite: Vec<&LedgerEntry> = ledger
        .entries()
        .iter()
        .filter(|e| e.relative_ci.is_finite())
        .collect();
    let Some(last) = finite.last() else {
        return false;
    };
    let half = n / 2;
    let Some(mid) = finite
        .iter()
        .min_by_key(|e| e.iteration.abs_diff(half))
        .filter(|e| e.iteration < last.iteration)
    else {
        return false;
    };
    mid.relative_ci > 0.0 && last.relative_ci / mid.relative_ci > STALL_SHRINK_THRESHOLD
}

/// Degree class of a vertex: `floor(log2(deg)) + 1`, with isolated
/// vertices in class 0 — so class `c > 0` covers degrees
/// `[2^(c-1), 2^c)`.
pub(crate) fn degree_class(deg: usize) -> u8 {
    (usize::BITS - deg.leading_zeros()) as u8
}

/// Human-readable label of a degree class (`deg 0`, `deg[1,2)`, ...).
pub(crate) fn degree_class_label(class: u8) -> String {
    if class == 0 {
        "deg 0".to_string()
    } else {
        format!("deg[{},{})", 1u64 << (class - 1), 1u64 << class)
    }
}

/// All estimator-observability handles one counting run needs, resolved
/// up front: the collector plus the per-vertex degree-class map (computed
/// once so the per-iteration capture is a table lookup).
pub(crate) struct RunEst {
    pub collector: Arc<EstCollector>,
    /// Degree class per graph vertex.
    pub deg_class: Vec<u8>,
    /// Number of degree classes present (`max class + 1`).
    pub num_classes: usize,
}

impl RunEst {
    /// Precomputes the degree-class map from every vertex's degree, in
    /// vertex order. Returns `None` when no collector is attached, which is
    /// what hot paths branch on.
    pub(crate) fn resolve(
        est: Option<&Arc<EstCollector>>,
        degrees: impl Iterator<Item = usize>,
    ) -> Option<Self> {
        let collector = Arc::clone(est?);
        let deg_class: Vec<u8> = degrees.map(degree_class).collect();
        let num_classes = deg_class.iter().map(|&c| c as usize + 1).max().unwrap_or(1);
        Some(Self {
            collector,
            deg_class,
            num_classes,
        })
    }

    /// Stores the run's stop-rule targets and a-priori bound.
    pub(crate) fn set_run_context(
        &self,
        target_epsilon: f64,
        target_delta: f64,
        apriori_iterations: u64,
        adaptive: bool,
    ) {
        self.collector.set_context(RunContext {
            target_epsilon,
            target_delta,
            apriori_iterations,
            adaptive,
        });
    }

    /// Folds one finished iteration into the collector (called at the
    /// wave barrier, in iteration order). `strata` is `None` for resumed
    /// iterations, whose root tables no longer exist.
    pub(crate) fn record_iteration(
        &self,
        iteration: u64,
        estimate: f64,
        running_mean: f64,
        relative_ci: f64,
        strata: Option<&EstIterStrata>,
        scale: f64,
    ) {
        self.collector.record(
            iteration,
            estimate,
            running_mean,
            relative_ci,
            strata,
            scale,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::Json;

    fn get<'a>(v: &'a Json, key: &str) -> Option<&'a Json> {
        Json::get(v.as_obj()?, key)
    }

    #[test]
    fn degree_classes_are_log2_buckets() {
        assert_eq!(degree_class(0), 0);
        assert_eq!(degree_class(1), 1);
        assert_eq!(degree_class(2), 2);
        assert_eq!(degree_class(3), 2);
        assert_eq!(degree_class(4), 3);
        assert_eq!(degree_class(7), 3);
        assert_eq!(degree_class(8), 4);
        assert_eq!(degree_class_label(0), "deg 0");
        assert_eq!(degree_class_label(1), "deg[1,2)");
        assert_eq!(degree_class_label(3), "deg[4,8)");
    }

    #[test]
    fn empty_collector_renders_a_valid_document() {
        let c = EstCollector::new();
        let doc = c.to_json();
        assert!(doc.contains("\"schema\":\"fascia-est/1\""));
        assert!(doc.contains("\"iterations\":0"));
        assert!(doc.contains("\"estimate\":null"));
        let v = Json::parse(&doc).expect("parses");
        assert!(v.as_obj().is_some());
    }

    #[test]
    fn stratum_shares_sum_to_100_percent() {
        let c = EstCollector::new();
        // Two colorset strata with different spreads; three iterations.
        let strata = |a: f64, b: f64| EstIterStrata {
            by_colorset: vec![a, b],
            by_class: vec![a + b],
        };
        c.record(0, 3.0, 3.0, f64::NAN, Some(&strata(1.0, 2.0)), 1.0);
        c.record(1, 7.0, 5.0, 0.5, Some(&strata(2.0, 5.0)), 1.0);
        c.record(2, 5.0, 5.0, 0.3, Some(&strata(1.0, 4.0)), 1.0);
        let doc = c.to_json();
        let v = Json::parse(&doc).expect("parses");
        let strata = get(&v, "strata").expect("strata");
        for taxonomy in ["colorset", "degree_class"] {
            let classes = get(strata, taxonomy)
                .and_then(|t| get(t, "classes"))
                .and_then(|c| c.as_arr())
                .expect("classes");
            let total: f64 = classes
                .iter()
                .filter_map(|c| get(c, "share_pct").and_then(|s| s.as_f64()))
                .sum();
            assert!(
                (total - 100.0).abs() < 1e-9,
                "{taxonomy} shares sum to {total}"
            );
        }
    }

    #[test]
    fn ledger_entries_round_trip_through_the_parser() {
        let c = EstCollector::with_ledger_cap(4);
        for i in 0..20u64 {
            c.record(i, i as f64, i as f64 / 2.0, 1.0 / (i + 1) as f64, None, 1.0);
        }
        let doc = c.to_json();
        let v = Json::parse(&doc).expect("parses");
        let ledger = get(&v, "ledger").expect("ledger");
        let entries = get(ledger, "entries")
            .and_then(|e| e.as_arr())
            .expect("entries");
        assert!(!entries.is_empty());
        assert!(entries.len() <= 5);
        let stride = get(ledger, "stride")
            .and_then(|s| s.as_u64())
            .expect("stride");
        assert!(stride.is_power_of_two() && stride > 1);
    }
}
