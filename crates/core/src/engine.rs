//! The color-coding counting engine (Algorithms 1 and 2 of the paper).
//!
//! Per iteration: color the graph uniformly at random with `k` colors, then
//! run the bottom-up dynamic program over the template's partition tree.
//! For a subtemplate `S` with active child `a` and passive child `p`, the
//! count of `S` rooted at graph vertex `v` with color set `C` is
//!
//! ```text
//! table[S][v][C] = Σ_{u ∈ N(v)} Σ_{C = Ca ⊎ Cp} table[a][v][Ca] · table[p][u][Cp]
//! ```
//!
//! The implementation factors the sum over neighbors out of the split sum
//! (`Σ_u` distributes over `Σ_{Ca,Cp}`), accumulates passive-child rows
//! once per vertex, and then combines them against the active row via the
//! precomputed split tables of `fascia-combin`.
//!
//! Paper optimizations reproduced here:
//!
//! * single-vertex subtemplates are never materialized — their counts are
//!   read directly off the coloring (one non-zero color set per vertex, the
//!   `(k-1)/k` work reduction of §III-D),
//! * per-vertex "initialized" checks skip vertices whose active child has
//!   no counts (§III-C),
//! * automorphic subtemplates share one table (canonical-class dedup),
//! * tables are freed as soon as every consumer is done, keeping only a
//!   handful live (§III-C),
//! * vertex labels prune every base case (Fig. 4's speedup).

use crate::chaos::{Chaos, IoSite};
use crate::coloring::{iteration_seed, random_coloring};
use crate::est::{EstCollector, EstIterStrata};
use crate::instruments::{Instruments, Phase, TraceMarks};
use crate::kernel::{cut_batch, run_pass, CutJob, InArcs, OutArcs};
use crate::mem::MemCollector;
use crate::metrics::{RunMetrics, TriangleMetrics};
use crate::parallel::ParallelMode;
use crate::progress::{Progress, ProgressSnapshot};
use crate::resilience::{CancelToken, Checkpoint, CheckpointConfig, StopCause, POLL_INTERVAL};
use crate::stats::{EstimateStats, StopRule, Welford};
use fascia_combin::{
    colorful_probability, BinomialTable, ColorSetIter, PositionSplitTable, SplitTable,
};
use fascia_graph::digraph::DiGraph;
use fascia_graph::Graph;
use fascia_obs::{Metrics, Profiler, Tracer};
use fascia_table::{
    projected_bytes, AnyTable, CountTable, DenseTable, HashCountTable, LazyTable, RowBatch,
    TableKind,
};
use fascia_template::automorphism::{automorphisms, rooted_automorphisms};
use fascia_template::canon::full_mask;
use fascia_template::directed::DiTemplate;
use fascia_template::partition::{NodeKind, PartitionError, SubNode};
use fascia_template::{PartitionStrategy, PartitionTree, Template};
use rayon::prelude::*;
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// XOR salt deriving the fresh coloring seed for a retried (previously
/// panicked) iteration, keeping the retry deterministic but independent.
const RETRY_SEED_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Configuration of a counting run.
#[derive(Debug, Clone)]
pub struct CountConfig {
    /// Number of color-coding iterations to average (Alg. 1, `N_iter`).
    pub iterations: usize,
    /// Number of colors `k`; defaults to the template size. More colors
    /// raise the colorful probability at the cost of bigger tables.
    pub colors: Option<usize>,
    /// Dynamic-table layout.
    pub table: TableKind,
    /// Template partitioning heuristic.
    pub strategy: PartitionStrategy,
    /// Threading scheme.
    pub parallel: ParallelMode,
    /// Base RNG seed; iteration `i` derives its coloring from
    /// `iteration_seed(seed, i)`, so results are identical across parallel
    /// modes.
    pub seed: u64,
    /// Optional adaptive stopping rule. `None` keeps the classic behavior
    /// of running exactly [`CountConfig::iterations`] iterations; `Some`
    /// overrides `iterations` entirely — see [`CountConfig::stop_rule`].
    ///
    /// With [`StopRule::RelativeError`] the engine folds every finished
    /// iteration's scaled estimate into a streaming [`Welford`]
    /// accumulator and stops as soon as the running confidence interval
    /// is tight enough. Serial and inner-loop modes check after every
    /// iteration; outer-loop and hybrid modes run *waves* of
    /// `num_threads` iterations between checks so per-worker private
    /// tables (and full thread utilization) are preserved.
    pub stop: Option<StopRule>,
    /// Optional metrics registry. When present and enabled, the engine
    /// records per-iteration coloring/DP timings, per-subtemplate spans,
    /// initialized-check skip counts, and measured table statistics (see
    /// the `metrics` module for the name schema). `None`, or a registry
    /// from [`Metrics::disabled`], costs one pointer check per hot-loop
    /// site and changes no counting result.
    pub metrics: Option<Arc<Metrics>>,
    /// Cooperative cancellation token (explicit cancel, external flag,
    /// and/or deadline). Checked at wave barriers and every
    /// [`POLL_INTERVAL`] vertices inside the per-vertex loops. A cancelled
    /// run discards its in-flight wave, flushes a final checkpoint when one
    /// is configured, and returns the partial estimate with
    /// [`CountResult::stop_cause`] marking it partial — unless *zero*
    /// iterations finished, which is [`CountError::Cancelled`].
    pub cancel: Option<CancelToken>,
    /// Soft cap on live DP-table bytes (per worker under outer-loop
    /// parallelism, which multiplies live tables by the thread count).
    /// Before each subtemplate table is built its footprint is projected
    /// for every layout on [`TableKind::ladder`] starting from
    /// [`CountConfig::table`]; the first layout that fits is used
    /// (`engine.degrade.layout_fallbacks` counts the steps down). When even
    /// the hashed layout cannot fit, the run fails with
    /// [`CountError::BudgetExceeded`] instead of thrashing.
    pub memory_budget_bytes: Option<usize>,
    /// Write a [`Checkpoint`] file at wave barriers (and once more when
    /// the run ends, however it ends), enabling `--resume`. Ignored by
    /// [`rooted_counts`].
    pub checkpoint: Option<CheckpointConfig>,
    /// Optional flight recorder. When present the engine records the run's
    /// *timeline* — the trace spans of the phase table (DESIGN.md §8),
    /// table build/fallback instants, checkpoint resume, cancellation and
    /// panic-retry events — into per-thread lock-free rings. Export with
    /// [`Tracer::to_chrome_json`] (Perfetto-loadable) or embed
    /// [`Tracer::summary_json`] in the metrics report. `None` costs one
    /// pointer check per site; ring overflow increments a drop counter and
    /// never changes a counting result.
    pub tracer: Option<Arc<Tracer>>,
    /// Optional sampling profiler. When present the engine publishes its
    /// current phase (every phase of the phase table, DESIGN.md §8) into
    /// the profiler's per-thread phase slots, so the watcher thread can
    /// attribute wall time to engine phases with flamegraph-compatible
    /// output (see [`Profiler::collapsed`]). The caller owns the watcher
    /// lifecycle ([`Profiler::start`] / [`Profiler::stop`]); publication
    /// alone is one relaxed store + one release add per phase boundary and
    /// never changes a counting result. `None` costs one pointer check per
    /// site.
    pub profiler: Option<Arc<Profiler>>,
    /// Optional live-progress reporter, driven at wave barriers with the
    /// iteration count, running estimate, and (for adaptive rules) the
    /// current relative CI half-width. Used by the CLI for the stderr
    /// progress line and the `--heartbeat` status file. For
    /// [`rooted_counts`] the running estimate is the scaled per-iteration
    /// total over all vertices.
    pub progress: Option<Arc<Progress>>,
    /// Resume from a previously saved checkpoint: its per-iteration series
    /// seeds the estimator and the run continues at the next iteration
    /// index. The checkpoint's fingerprint (seed, colors, template size,
    /// graph shape, stop rule) must match this run or the engine returns
    /// [`CountError::ResumeMismatch`]. Ignored by [`rooted_counts`], like
    /// [`CountConfig::checkpoint`]: the checkpoint format stores the scalar
    /// series only.
    pub resume: Option<Checkpoint>,
    /// Optional seed-scheduled chaos layer ([`crate::chaos`]), the
    /// engine's fault-injection hook. Each counting run claims a run index
    /// with [`Chaos::begin_run`] and then consults the schedule for worker
    /// panics (per iteration/attempt), cancellation, injected
    /// checkpoint-write IO errors, DP stalls, and memory-budget squeezes.
    /// All decisions are pure functions of the schedule seed and fault
    /// coordinates, so a replay with the same spec and job order
    /// reproduces the identical event sequence. Every entry point that
    /// runs the shared iteration driver ([`count_template`],
    /// [`rooted_counts`], [`crate::directed::count_directed`]) honors it.
    pub chaos: Option<Arc<Chaos>>,
    /// Optional memory-observability collector. When present the engine
    /// attributes allocator traffic to the phase table's allocator phases
    /// (DESIGN.md §8; effective when the binary installed
    /// [`fascia_obs::CountingAlloc`]) and folds every released DP table's
    /// storage/access statistics into the collector, from which
    /// [`MemCollector::to_json`] renders the `fascia-mem/1` document.
    /// Purely observational: counting results are bitwise identical with
    /// it absent, attached, or fully enabled. `None` costs one pointer
    /// check per site.
    pub mem: Option<Arc<MemCollector>>,
    /// Optional estimator-convergence collector. When present the engine
    /// feeds every finished iteration's scaled estimate (plus the running
    /// mean and relative CI) into a bounded, deterministically-downsampled
    /// ledger and decomposes each iteration's root-table total across
    /// per-colorset and per-root-vertex-degree-class strata, from which
    /// [`EstCollector::to_json`] renders the `fascia-est/1` document.
    /// Purely observational — the stratum capture only re-reads the root
    /// table and the ledger is fed at wave barriers, so counting results
    /// are bitwise identical with it absent or attached. `None` costs one
    /// pointer check per site. A [`rooted_counts`] run records its
    /// per-iteration totals over all vertices.
    pub est: Option<Arc<EstCollector>>,
}

impl CountConfig {
    /// Configuration whose iteration count meets the Alon–Yuster–Zwick
    /// worst-case bound for relative error `epsilon` at confidence
    /// `1 - 2*delta` on a `template_size`-vertex template (Alg. 1 line 2).
    ///
    /// The bound is wildly conservative in practice (§V-D); use it when a
    /// guarantee matters more than speed.
    pub fn for_error(epsilon: f64, delta: f64, template_size: usize) -> Self {
        Self {
            iterations: fascia_combin::iterations_for(epsilon, delta, template_size) as usize,
            ..Self::default()
        }
    }

    /// Configuration that stops adaptively: iterate until the running
    /// estimate's relative confidence half-width at confidence `1 - delta`
    /// drops below `epsilon`, with the library-default iteration floor and
    /// budget (see [`StopRule::relative_error`]). In practice this reaches
    /// a given accuracy in orders of magnitude fewer iterations than
    /// [`CountConfig::for_error`]'s worst-case bound (§V-D).
    pub fn adaptive(epsilon: f64, delta: f64) -> Self {
        Self {
            stop: Some(StopRule::relative_error(epsilon, delta)),
            ..Self::default()
        }
    }

    /// The effective stopping rule: [`CountConfig::stop`] when set,
    /// otherwise `FixedIterations(self.iterations)`.
    pub fn stop_rule(&self) -> StopRule {
        self.stop
            .clone()
            .unwrap_or(StopRule::FixedIterations(self.iterations))
    }
}

impl Default for CountConfig {
    fn default() -> Self {
        Self {
            iterations: 10,
            colors: None,
            table: TableKind::Lazy,
            strategy: PartitionStrategy::OneAtATime,
            parallel: ParallelMode::Auto,
            seed: 0x00FA_5C1A,
            stop: None,
            metrics: None,
            cancel: None,
            memory_budget_bytes: None,
            checkpoint: None,
            tracer: None,
            profiler: None,
            progress: None,
            resume: None,
            chaos: None,
            mem: None,
            est: None,
        }
    }
}

/// Errors from the counting entry points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CountError {
    /// The template could not be partitioned.
    Partition(PartitionError),
    /// The template carries labels but no graph labels were supplied.
    LabelsRequired,
    /// Graph label vector length differs from the vertex count.
    LabelLengthMismatch,
    /// Fewer colors than template vertices.
    NotEnoughColors { colors: usize, template: usize },
    /// More colors than the combinatorial tables support.
    TooManyColors(usize),
    /// Zero iterations requested.
    NoIterations,
    /// The configured [`StopRule`] has unusable parameters; the payload
    /// says which one.
    InvalidStopRule(&'static str),
    /// Even the most compact table layout cannot fit a required DP table
    /// under [`CountConfig::memory_budget_bytes`].
    BudgetExceeded {
        /// Projected live bytes with the hashed (most compact) layout.
        required: usize,
        /// The configured per-worker budget.
        budget: usize,
    },
    /// A resume checkpoint's fingerprint disagrees with this run; the
    /// payload names the first mismatching field.
    ResumeMismatch(&'static str),
    /// The run was cancelled before a single iteration finished, so there
    /// is no estimate to report (a configured checkpoint is still
    /// flushed, and is valid for `--resume`).
    Cancelled,
    /// Writing a checkpoint file failed (estimates cannot be protected,
    /// so the run stops rather than silently losing recoverability).
    CheckpointWrite(String),
}

impl std::fmt::Display for CountError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CountError::Partition(e) => write!(f, "partitioning failed: {e}"),
            CountError::LabelsRequired => {
                write!(f, "labeled template requires graph labels")
            }
            CountError::LabelLengthMismatch => {
                write!(f, "graph label vector length must equal vertex count")
            }
            CountError::NotEnoughColors { colors, template } => {
                write!(f, "{colors} colors < {template} template vertices")
            }
            CountError::TooManyColors(k) => write!(
                f,
                "{k} colors exceed the supported maximum of {}",
                fascia_combin::MAX_COLORS
            ),
            CountError::NoIterations => write!(f, "at least one iteration is required"),
            CountError::InvalidStopRule(why) => write!(f, "invalid stop rule: {why}"),
            CountError::BudgetExceeded { required, budget } => write!(
                f,
                "memory budget exceeded: even the hashed layout needs \
                 {required} live bytes against a budget of {budget}"
            ),
            CountError::ResumeMismatch(field) => {
                write!(f, "checkpoint does not match this run: {field} differs")
            }
            CountError::Cancelled => {
                write!(f, "run cancelled before any iteration completed")
            }
            CountError::CheckpointWrite(e) => write!(f, "checkpoint write failed: {e}"),
        }
    }
}

impl std::error::Error for CountError {}

impl From<PartitionError> for CountError {
    fn from(e: PartitionError) -> Self {
        CountError::Partition(e)
    }
}

/// Result of a counting run.
#[derive(Debug, Clone)]
pub struct CountResult {
    /// Final estimate: mean of the per-iteration estimates (Alg. 1 line 7).
    pub estimate: f64,
    /// Per-iteration scaled estimates (already divided by `P · α`).
    pub per_iteration: Vec<f64>,
    /// Iterations actually executed. Equals the configured count under
    /// `FixedIterations`; under [`StopRule::RelativeError`] it is whatever
    /// the convergence test settled on (at most the rule's `max_iters`).
    pub iterations_run: usize,
    /// Standard error of the mean over the per-iteration estimates.
    pub std_error: f64,
    /// Half-width of the ~95% normal-approximation confidence interval:
    /// the estimate is `estimate ± ci95` at 95% confidence.
    pub ci95: f64,
    /// Peak bytes held in DP tables plus index tables, across iterations.
    pub peak_table_bytes: usize,
    /// Wall-clock for the whole run.
    pub elapsed: Duration,
    /// Mean wall-clock of one iteration.
    pub per_iteration_time: Duration,
    /// Automorphism count `α` used in the final scaling.
    pub automorphisms: u64,
    /// Colorful probability `P` used in the final scaling.
    pub colorful_probability: f64,
    /// Why the run stopped. [`StopCause::is_partial`] marks estimates
    /// built from fewer iterations than the stop rule wanted (the
    /// estimate is still an unbiased mean of the iterations that ran).
    pub stop_cause: StopCause,
    /// Iterations replayed from a resume checkpoint (counted into
    /// [`CountResult::iterations_run`] but not re-executed).
    pub resumed_iterations: usize,
}

/// Result of a rooted (per-vertex) counting run.
#[derive(Debug, Clone)]
pub struct RootedResult {
    /// Estimated graphlet degree of every vertex for the chosen orbit.
    pub per_vertex: Vec<f64>,
    /// Scaling used (`P · α_rooted`).
    pub scale: f64,
    /// Wall-clock for the whole run.
    pub elapsed: Duration,
    /// Why the run stopped (see [`CountResult::stop_cause`]).
    pub stop_cause: StopCause,
}

/// Approximate count of non-induced occurrences of an unlabeled template.
///
/// ```
/// use fascia_core::engine::{count_template, CountConfig};
/// use fascia_graph::Graph;
/// use fascia_template::Template;
///
/// // A 6-cycle contains exactly 6 three-vertex paths.
/// let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
/// let cfg = CountConfig { iterations: 400, ..CountConfig::default() };
/// let r = count_template(&g, &Template::path(3), &cfg).unwrap();
/// assert!((r.estimate - 6.0).abs() < 1.0);
/// ```
pub fn count_template(
    g: &Graph,
    t: &Template,
    cfg: &CountConfig,
) -> Result<CountResult, CountError> {
    if t.labels().is_some() {
        return Err(CountError::LabelsRequired);
    }
    count_impl(g, None, t, cfg)
}

/// Approximate count of a labeled template in a vertex-labeled graph.
///
/// Both labelings use small integer alphabets; a template vertex may only
/// map onto a graph vertex with an equal label.
pub fn count_template_labeled(
    g: &Graph,
    graph_labels: &[u8],
    t: &Template,
    cfg: &CountConfig,
) -> Result<CountResult, CountError> {
    if graph_labels.len() != g.num_vertices() {
        return Err(CountError::LabelLengthMismatch);
    }
    count_impl(g, Some(graph_labels), t, cfg)
}

/// Per-vertex rooted counts: the estimated number of occurrences in which
/// each graph vertex plays the role of template vertex `orbit` (graphlet
/// degrees, §V-F).
///
/// Runs the same iteration driver as [`count_template`], with the tree
/// rooted at `orbit`, the rooted automorphism count in the scaling, and
/// each iteration's root-table row sums folded into one running
/// per-vertex accumulator. The stop rule streams each iteration's total
/// (Σ row sums, scaled). Checkpoints and resume do not apply: the
/// checkpoint format stores the scalar series only.
pub fn rooted_counts(
    g: &Graph,
    t: &Template,
    orbit: u8,
    cfg: &CountConfig,
) -> Result<RootedResult, CountError> {
    if t.labels().is_some() {
        return Err(CountError::LabelsRequired);
    }
    let k = effective_colors(t, cfg)?;
    let pt = PartitionTree::build_with_root(t, orbit, cfg.strategy)?;
    let run = Run {
        src: Source::Undirected(g),
        labels: None,
        t,
        pt: &pt,
        k,
        alpha: rooted_automorphisms(t, orbit, full_mask(t.size())),
        rooted: true,
    };
    let (result, per_vertex) = drive(&run, cfg)?;
    Ok(RootedResult {
        per_vertex: per_vertex.expect("rooted runs accumulate per vertex"),
        scale: result.colorful_probability * run.alpha as f64,
        elapsed: result.elapsed,
        stop_cause: result.stop_cause,
    })
}

pub(crate) fn effective_colors(t: &Template, cfg: &CountConfig) -> Result<usize, CountError> {
    match cfg.stop_rule() {
        StopRule::FixedIterations(0) => return Err(CountError::NoIterations),
        rule => rule.validate().map_err(CountError::InvalidStopRule)?,
    }
    let k = cfg.colors.unwrap_or(t.size());
    if k < t.size() {
        return Err(CountError::NotEnoughColors {
            colors: k,
            template: t.size(),
        });
    }
    if k > fascia_combin::MAX_COLORS {
        return Err(CountError::TooManyColors(k));
    }
    Ok(k)
}

fn count_impl(
    g: &Graph,
    labels: Option<&[u8]>,
    t: &Template,
    cfg: &CountConfig,
) -> Result<CountResult, CountError> {
    if t.labels().is_some() && labels.is_none() {
        return Err(CountError::LabelsRequired);
    }
    let k = effective_colors(t, cfg)?;
    let pt = PartitionTree::build(t, cfg.strategy)?;
    let run = Run {
        src: Source::Undirected(g),
        labels,
        t,
        pt: &pt,
        k,
        alpha: automorphisms(t),
        rooted: false,
    };
    Ok(drive(&run, cfg)?.0)
}

/// The graph a run counts in, and so the neighbor source of every cut
/// node.
#[derive(Clone, Copy)]
pub(crate) enum Source<'a> {
    Undirected(&'a Graph),
    /// A directed graph: each cut walks out-arcs or in-arcs as the
    /// template arc across it points.
    Directed(&'a DiGraph, &'a DiTemplate),
}

impl Source<'_> {
    fn num_vertices(&self) -> usize {
        match self {
            Source::Undirected(g) => g.num_vertices(),
            Source::Directed(g, _) => g.num_vertices(),
        }
    }

    /// Edge (arc) count, part of the checkpoint fingerprint.
    fn num_edges(&self) -> usize {
        match self {
            Source::Undirected(g) => g.num_edges(),
            Source::Directed(g, _) => g.num_arcs(),
        }
    }

    /// Degree for the estimator's degree-class strata (in plus out for a
    /// directed graph).
    fn degree(&self, v: usize) -> usize {
        match self {
            Source::Undirected(g) => g.degree(v),
            Source::Directed(g, _) => g.out_degree(v) + g.in_degree(v),
        }
    }
}

/// One counting run as an entry point sets it up: what to count, where,
/// and how to scale and sink each iteration. [`drive`] runs it.
pub(crate) struct Run<'a> {
    pub(crate) src: Source<'a>,
    pub(crate) labels: Option<&'a [u8]>,
    /// The (undirected) template: size, labels, partition.
    pub(crate) t: &'a Template,
    pub(crate) pt: &'a PartitionTree,
    pub(crate) k: usize,
    /// Automorphism count `α` of the scaling `1 / (P · α)`.
    pub(crate) alpha: u64,
    /// Sink root-table row sums into a per-vertex accumulator (and stream
    /// their total) instead of streaming the table total.
    pub(crate) rooted: bool,
}

/// The iteration driver every counting entry point shares: waves of
/// iterations under the stop rule, with panic retry, cancellation,
/// checkpoints, fault and chaos hooks, and every observer. Returns the
/// run summary, plus the per-vertex means of a rooted run.
pub(crate) fn drive(
    run: &Run<'_>,
    cfg: &CountConfig,
) -> Result<(CountResult, Option<Vec<f64>>), CountError> {
    let Run {
        src,
        labels,
        t,
        pt,
        k,
        alpha,
        rooted,
    } = *run;
    let n = src.num_vertices();
    // The checkpoint format stores the scalar series only, so rooted runs
    // neither write nor resume one.
    let checkpoint = cfg.checkpoint.as_ref().filter(|_| !rooted);
    let resume = cfg.resume.as_ref().filter(|_| !rooted);
    let ctx = DpContext::new(pt, k);
    let ins = Instruments::resolve(cfg, pt, (0..n).map(|v| src.degree(v)));
    let (rm, tr, es) = (ins.metrics.as_ref(), ins.trace.as_ref(), ins.est.as_ref());
    let p = colorful_probability(k, t.size());
    let scale = p * alpha as f64;
    let rule = cfg.stop_rule();
    let budget = rule.budget();
    if let Some(e) = es {
        // Resolve the stop-rule targets (or the library defaults for a
        // fixed run) and the AYZ a-priori bound once, so the document can
        // compare the observed trajectory against the guarantee.
        let (eps, delta) = match &rule {
            StopRule::RelativeError { epsilon, delta, .. } => (*epsilon, *delta),
            _ => (0.05, 0.05),
        };
        let apriori = fascia_combin::iterations_for(eps, delta, t.size());
        e.set_run_context(eps, delta, apriori, rule.is_adaptive());
    }
    let start = Instant::now();

    // A resume checkpoint's fingerprint must match this run exactly
    // before its series can be trusted.
    let resumed: &[f64] = match resume {
        Some(ck) => {
            let checks: [(&'static str, bool); 6] = [
                ("seed", ck.seed == cfg.seed),
                ("colors", ck.colors == k),
                ("template_size", ck.template_size == t.size()),
                ("graph_vertices", ck.graph_vertices == n),
                ("graph_edges", ck.graph_edges == src.num_edges()),
                ("rule", ck.rule == rule),
            ];
            if let Some(&(field, _)) = checks.iter().find(|&&(_, ok)| !ok) {
                return Err(CountError::ResumeMismatch(field));
            }
            &ck.per_iteration
        }
        None => &[],
    };
    if let (Some(t), Some(_)) = (tr, resume) {
        t.tracer.instant(t.checkpoint_resume, resumed.len() as u64);
    }

    // Each counting run claims one chaos run index; faults then address
    // (run, iteration, attempt) coordinates, so a supervisor retry rolls
    // fresh coordinates and injected faults stay transient.
    let chaos_run = cfg.chaos.as_ref().map(|c| c.begin_run());
    // A schedule that cancels needs a token even when the caller passed
    // none.
    let cancel: Option<CancelToken> = cfg.cancel.clone().or_else(|| {
        cfg.chaos
            .as_ref()
            .and_then(|c| c.spec().cancel_at)
            .map(|_| CancelToken::new())
    });

    let mode = cfg.parallel.resolve(n, budget);
    if let Some(m) = rm {
        m.threads.set(rayon::current_num_threads() as u64);
    }
    // Iterations run in waves; between waves the stop rule sees every
    // finished estimate through the streaming accumulator. A fixed rule
    // runs its whole count as a single wave — exactly the classic
    // schedule. An adaptive rule first runs up to its earliest possible
    // stopping point, then proceeds one check-interval at a time:
    // one iteration per wave for serial/inner modes, `num_threads`
    // iterations per wave for outer/hybrid so every worker keeps a
    // private table and a full complement of work between barriers.
    let outer = matches!(mode, ParallelMode::OuterLoop | ParallelMode::Hybrid);
    let inner = matches!(mode, ParallelMode::InnerLoop | ParallelMode::Hybrid);
    let check_interval = if outer {
        rayon::current_num_threads().max(1)
    } else {
        1
    };
    // Outer-loop parallelism multiplies live tables by the worker count.
    let peak_table_bytes = |raw: &[(f64, usize)]| {
        let peak_one = raw.iter().map(|&(_, b)| b).max().unwrap_or(0);
        (peak_one * check_interval.min(raw.len()).max(1))
            .max(resume.map_or(0, |ck| ck.peak_table_bytes))
    };
    // Outer-loop workers each hold a private set of live tables, so a
    // memory budget is split between them. A chaos squeeze halves (or
    // worse) the whole-run budget before the split, exercising the
    // dense→lazy→hashed degradation ladder under schedule control.
    let squeeze = chaos_run.as_ref().map_or(0, |c| c.budget_squeeze_shift());
    let gate = cfg.memory_budget_bytes.map(|limit| BudgetGate {
        limit: (limit >> squeeze) / check_interval.max(1),
        preferred: cfg.table,
    });
    let pass = Pass {
        src,
        labels,
        t,
        pt,
        ctx: &ctx,
        preferred: cfg.table,
        gate: gate.as_ref(),
        cancel: cancel.as_ref(),
        want_row_sums: rooted,
        retain: false,
        ins: &ins,
    };

    let run_attempt = |i: usize, seed: u64| -> Result<IterationOutput, CountError> {
        let iter_scope = ins.enter(Phase::Iteration, i as u64);
        let col_scope = ins.enter(Phase::Coloring, i as u64);
        let coloring = random_coloring(n, k, iteration_seed(seed, i as u64));
        drop(col_scope);
        let stall = chaos_run.as_ref().and_then(|c| c.dp_stall(i));
        let out = dispatch_iteration(&pass, &coloring, inner, stall)?;
        drop(iter_scope);
        if let Some(m) = rm {
            m.iterations_total.inc();
            if out.colorful_total != 0.0 {
                m.iterations_colorful.inc();
            }
            m.table.bytes_peak.set_max(out.peak_bytes as u64);
        }
        Ok(out)
    };
    let run_one = |i: usize| -> Result<IterationOutput, CountError> {
        if let Some(tok) = &cancel {
            if chaos_run.as_ref().is_some_and(|c| c.should_cancel(i)) {
                tok.cancel();
            }
            if tok.is_cancelled() {
                return Err(CountError::Cancelled);
            }
        }
        let first = catch_unwind(AssertUnwindSafe(|| {
            if chaos_run.as_ref().is_some_and(|c| c.should_panic(i, 0)) {
                panic!("chaos: scheduled worker panic at iteration {i}");
            }
            run_attempt(i, cfg.seed)
        }));
        match first {
            Ok(res) => res,
            Err(_poison) => {
                // The iteration body only touches per-iteration state, so
                // a panic poisons nothing shared: count it, retry once
                // with an independent coloring seed, and only a second
                // panic (a systematic bug, not a stray fault) propagates.
                if let Some(m) = rm {
                    m.iterations_poisoned.inc();
                    m.iterations_retried.inc();
                }
                if let Some(t) = tr {
                    t.tracer.instant(t.panic_retry, i as u64);
                }
                match catch_unwind(AssertUnwindSafe(|| {
                    if chaos_run.as_ref().is_some_and(|c| c.should_panic(i, 1)) {
                        panic!("chaos: scheduled worker panic at iteration {i} (retry)");
                    }
                    run_attempt(i, cfg.seed ^ RETRY_SEED_SALT)
                })) {
                    Ok(res) => res,
                    Err(again) => resume_unwind(again),
                }
            }
        }
    };
    let flush_ordinal = std::cell::Cell::new(0u64);
    let flush_checkpoint = |raw: &[(f64, usize)]| -> Result<(), CountError> {
        let Some(ckcfg) = checkpoint else {
            return Ok(());
        };
        let _flush = ins.enter(Phase::CheckpointFlush, raw.len() as u64);
        let ck = Checkpoint {
            seed: cfg.seed,
            colors: k,
            template_size: t.size(),
            graph_vertices: n,
            graph_edges: src.num_edges(),
            rule: rule.clone(),
            per_iteration: raw.iter().map(|&(x, _)| x).collect(),
            peak_table_bytes: peak_table_bytes(raw),
        };
        // The schedule can fail a flush before any bytes move; `op` is the
        // flush ordinal, so successive flushes roll independent faults.
        if let Some(cr) = chaos_run.as_ref() {
            let op = flush_ordinal.get();
            flush_ordinal.set(op + 1);
            if let Some(e) = cr.io_error(IoSite::CheckpointSave, op) {
                return Err(CountError::CheckpointWrite(e.to_string()));
            }
        }
        ck.save_opts(&ckcfg.path, ckcfg.durable)
            .map_err(|e| CountError::CheckpointWrite(e.to_string()))?;
        if let Some(m) = rm {
            m.checkpoint_writes.inc();
        }
        Ok(())
    };

    // Resilient runs (and resumed ones, via `done > 0`) keep every wave
    // short so cancellation latency and checkpoint staleness stay bounded;
    // without any of those features the schedule below reduces exactly to
    // the classic one.
    let resilient = cancel.is_some() || checkpoint.is_some() || cfg.chaos.is_some();
    let mut stream = Welford::new();
    let mut raw: Vec<(f64, usize)> = Vec::with_capacity(resumed.len());
    // Running relative CI at the stop rule's critical value, once defined;
    // shared by the ledger feed, the progress snapshot and the trace.
    let ci_rel = |stream: &Welford| {
        (stream.count() >= 2 && stream.mean() != 0.0)
            .then(|| stream.ci_half_width(rule.z()) / stream.mean().abs())
    };
    for &x in resumed {
        stream.push(x);
        if let Some(e) = es {
            // Resumed iterations re-enter the ledger (their root tables
            // are gone, so they carry no stratum decomposition).
            e.record_iteration(
                raw.len() as u64,
                x,
                stream.mean(),
                ci_rel(&stream).unwrap_or(f64::NAN),
                None,
                scale,
            );
        }
        raw.push((x, 0));
    }
    let resumed_iterations = resumed.len();
    // One status snapshot per wave barrier, shared by the progress line,
    // the heartbeat file, and the final report.
    let target_rel = match &rule {
        StopRule::RelativeError { epsilon, .. } => Some(*epsilon),
        _ => None,
    };
    let snapshot = |stream: &Welford, done: usize, cause: Option<StopCause>| ProgressSnapshot {
        done,
        budget,
        estimate: stream.mean(),
        ci_rel: ci_rel(stream),
        target_rel,
        elapsed: start.elapsed(),
        stop_cause: cause,
    };
    let mut cause = StopCause::Completed;
    let mut waves_since_flush = 0usize;
    // A rooted iteration hands back O(n) row sums, so its waves run and
    // fold `check_interval` iterations at a time, holding O(n) state
    // however many iterations the run has; scalar waves run whole.
    let chunk = if rooted { check_interval } else { usize::MAX };
    let mut per_vertex = rooted.then(|| vec![0.0f64; n]);
    loop {
        let done = raw.len();
        // A resumed run may already be complete or converged.
        if done >= budget {
            break;
        }
        if done > 0 && rule.satisfied(&stream) {
            cause = StopCause::Converged;
            break;
        }
        let target = if done == 0 && !resilient {
            rule.min_iterations().clamp(1, budget)
        } else {
            (done + check_interval).min(budget)
        };
        let wave_scope = ins.enter(Phase::Wave, (target - done) as u64);
        let mut cancelled = false;
        let mut next = done;
        while next < target {
            let end = target.min(next.saturating_add(chunk));
            let results: Vec<Result<IterationOutput, CountError>> = if outer {
                (next..end).into_par_iter().map(run_one).collect()
            } else {
                (next..end).map(run_one).collect()
            };
            // A cancelled wave is discarded whole, so the surviving series
            // is always the contiguous iteration prefix a checkpoint
            // describes. (A wave spans several chunks only in runs that
            // cannot be cancelled.)
            cancelled = cancel.as_ref().is_some_and(|c| c.is_cancelled())
                || results
                    .iter()
                    .any(|r| matches!(r, Err(CountError::Cancelled)));
            if cancelled {
                break;
            }
            for r in results {
                let out = r?;
                let total = match (&out.root_row_sums, per_vertex.as_mut()) {
                    (Some(sums), Some(acc)) => {
                        for (a, &x) in acc.iter_mut().zip(sums) {
                            *a += x;
                        }
                        sums.iter().sum::<f64>()
                    }
                    _ => out.colorful_total,
                };
                let x = total / scale;
                stream.push(x);
                if let Some(e) = es {
                    e.record_iteration(
                        raw.len() as u64,
                        x,
                        stream.mean(),
                        ci_rel(&stream).unwrap_or(f64::NAN),
                        out.est_strata.as_ref(),
                        scale,
                    );
                }
                raw.push((x, out.peak_bytes));
            }
            next = end;
        }
        drop(wave_scope);
        if cancelled {
            cause = cancel
                .as_ref()
                .and_then(|c| c.cause())
                .unwrap_or(StopCause::Cancelled);
            if let Some(t) = tr {
                t.tracer.instant(t.cancelled, raw.len() as u64);
            }
            break;
        }
        if rule.is_adaptive() {
            if let Some(m) = rm {
                m.adaptive_checks.inc();
                m.adaptive_estimate
                    .set(stream.mean().max(0.0).round() as u64);
                m.adaptive_ci
                    .set(stream.ci_half_width(rule.z()).round() as u64);
            }
            if let (Some(t), Some(ci_rel)) = (tr, ci_rel(&stream)) {
                t.tracer
                    .sample(t.adaptive_ci, (ci_rel * 1000.0).round() as u64);
            }
        }
        if let Some(p) = &cfg.progress {
            p.wave(&snapshot(&stream, raw.len(), None));
        }
        if let Some(ckcfg) = checkpoint {
            waves_since_flush += 1;
            if waves_since_flush >= ckcfg.every_waves.max(1) {
                waves_since_flush = 0;
                flush_checkpoint(&raw)?;
            }
        }
        if rule.satisfied(&stream) {
            if raw.len() < budget {
                cause = StopCause::Converged;
            }
            break;
        }
        if raw.len() >= budget {
            break;
        }
    }
    // The final flush runs however the loop ended, so even an
    // immediately-cancelled run leaves a valid (possibly zero-iteration)
    // resume file behind. The progress reporter likewise always sees the
    // terminal snapshot (and terminates its stderr line).
    flush_checkpoint(&raw)?;
    if let Some(ckcfg) = checkpoint {
        // A `.tmp` sibling can only be a stale staging file from a process
        // that died between write and rename; this run's own writes either
        // renamed it away or removed it on failure. Sweep it so the run
        // directory ends clean on normal exit and on Ctrl-C alike.
        let _ = std::fs::remove_file(crate::resilience::tmp_sibling(&ckcfg.path));
    }
    if let Some(p) = &cfg.progress {
        p.finish(&snapshot(&stream, raw.len(), Some(cause)));
    }
    if raw.is_empty() {
        return Err(CountError::Cancelled);
    }
    let executed = raw.len() - resumed_iterations;
    let iters = raw.len();
    if let Some(m) = rm {
        if rule.is_adaptive() && !cause.is_partial() {
            m.iterations_saved.add((budget - raw.len()) as u64);
        }
    }
    let per_iteration: Vec<f64> = raw.iter().map(|&(x, _)| x).collect();
    let elapsed = start.elapsed();
    // The batch statistics reproduce the streaming ones; computing them
    // from the series keeps `estimate` bitwise identical to the
    // pre-adaptive mean-of-series expression.
    let stats = EstimateStats::from_series(&per_iteration);
    if let Some(acc) = per_vertex.as_mut() {
        let denom = scale * iters as f64;
        for x in acc.iter_mut() {
            *x /= denom;
        }
    }
    let result = CountResult {
        estimate: stats.mean,
        per_iteration,
        iterations_run: iters,
        std_error: stats.std_error,
        ci95: stats.ci95_half_width,
        peak_table_bytes: peak_table_bytes(&raw),
        elapsed,
        per_iteration_time: elapsed / executed.max(1) as u32,
        automorphisms: alpha,
        colorful_probability: p,
        stop_cause: cause,
        resumed_iterations,
    };
    Ok((result, per_vertex))
}

/// Precomputed combinatorial context shared by all iterations of a run.
pub(crate) struct DpContext {
    pub(crate) k: usize,
    pub(crate) binom: BinomialTable,
    /// `nc[h]` = `C(k, h)`.
    pub(crate) nc: Vec<usize>,
    /// Split tables per (subtemplate size, active size), for active > 1.
    pub(crate) splits: HashMap<(u8, u8), SplitTable>,
    /// Position-major transposes of `splits`, the index layout of the
    /// vectorized kernel's flat multiply-accumulate.
    pub(crate) pos_splits: HashMap<(u8, u8), PositionSplitTable>,
    /// Removal tables per subtemplate size `h`: entry `[I * k + c]` is the
    /// CNS index of the (h-1)-set `C_I \ {c}`, or -1 when `c ∉ C_I`. Used
    /// for single-vertex active children.
    pub(crate) removals: HashMap<u8, Vec<i32>>,
    /// Bytes held by the index tables (counted into peak memory, §III-B).
    index_bytes: usize,
}

impl DpContext {
    pub(crate) fn new(pt: &PartitionTree, k: usize) -> Self {
        let binom = BinomialTable::new(fascia_combin::MAX_COLORS.max(k));
        let nc: Vec<usize> = (0..=k).map(|h| binom.get(k, h) as usize).collect();
        let mut splits = HashMap::new();
        let mut removals: HashMap<u8, Vec<i32>> = HashMap::new();
        let mut index_bytes = 0usize;
        for &idx in pt.unique_order() {
            let node = &pt.nodes()[idx as usize];
            if let NodeKind::Cut { active, .. } = node.kind {
                let h = node.size;
                let a = pt.nodes()[active as usize].size;
                if a == 1 {
                    removals
                        .entry(h)
                        .or_insert_with(|| build_removal_table(k, h as usize, &binom));
                } else {
                    splits
                        .entry((h, a))
                        .or_insert_with(|| SplitTable::new(k, h as usize, a as usize, &binom));
                }
            }
        }
        let pos_splits: HashMap<(u8, u8), PositionSplitTable> = splits
            .iter()
            .map(|(&key, s)| (key, PositionSplitTable::new(s)))
            .collect();
        for s in splits.values() {
            index_bytes += s.bytes();
        }
        for p in pos_splits.values() {
            index_bytes += p.bytes();
        }
        for r in removals.values() {
            index_bytes += r.capacity() * std::mem::size_of::<i32>();
        }
        Self {
            k,
            binom,
            nc,
            splits,
            pos_splits,
            removals,
            index_bytes,
        }
    }
}

/// Builds the removal table for size `h`: for each `h`-set index and each
/// color, the index of the set minus that color (or -1).
fn build_removal_table(k: usize, h: usize, binom: &BinomialTable) -> Vec<i32> {
    let nc = binom.get(k, h) as usize;
    let mut rem = vec![-1i32; nc * k];
    let mut sets = ColorSetIter::new(k, h);
    let mut idx = 0usize;
    let mut reduced = Vec::with_capacity(h.saturating_sub(1));
    while let Some(set) = sets.next() {
        for (pos, &c) in set.iter().enumerate() {
            reduced.clear();
            reduced.extend(
                set.iter()
                    .enumerate()
                    .filter(|&(i, _)| i != pos)
                    .map(|(_, &x)| x),
            );
            rem[idx * k + c as usize] = fascia_combin::index_of_set(&reduced, binom) as i32;
        }
        idx += 1;
    }
    rem
}

/// Per-worker memory-budget gate (DESIGN.md §11): before each subtemplate
/// table is built, its footprint is projected for every layout on
/// [`TableKind::ladder`] and the first one that fits next to the
/// already-live DP state is used. Degradation is monotone (dense → lazy →
/// hashed); only when even the hashed layout cannot fit does the run fail.
pub(crate) struct BudgetGate {
    /// Live-byte cap for one worker's DP state.
    pub(crate) limit: usize,
    /// The layout the run asked for — the top of the ladder.
    pub(crate) preferred: TableKind,
}

impl BudgetGate {
    /// Picks the first layout on the ladder whose projected footprint fits
    /// beside `live_bytes` of already-held state. Takes the row shape as
    /// counts (`active` rows, `live` non-zero entries) so both row-vector
    /// and arena-batch producers can feed it.
    fn choose(
        &self,
        n: usize,
        nc: usize,
        active: usize,
        live: usize,
        live_bytes: usize,
        rm: Option<&RunMetrics>,
    ) -> Result<TableKind, CountError> {
        let remaining = self.limit.saturating_sub(live_bytes);
        let mut required = 0;
        for (steps, &kind) in self.preferred.ladder().iter().enumerate() {
            required = projected_bytes(kind, n, nc, active, live);
            if required <= remaining {
                if steps > 0 {
                    if let Some(m) = rm {
                        m.degrade_fallbacks.add(steps as u64);
                    }
                }
                return Ok(kind);
            }
        }
        // Every ladder ends at the hashed layout, so `required` holds its
        // projection when nothing fit.
        Err(CountError::BudgetExceeded {
            required: live_bytes + required,
            budget: self.limit,
        })
    }
}

/// One stored child: either a virtual single-vertex subtemplate (counts
/// read off the coloring) or a materialized table.
pub(crate) enum Stored<T> {
    Single { label: Option<u8> },
    Table(T),
}

struct IterationOutput {
    colorful_total: f64,
    peak_bytes: usize,
    root_row_sums: Option<Vec<f64>>,
    est_strata: Option<EstIterStrata>,
}

/// Records the flight-recorder instants for one materialized DP table: a
/// `table.build` with the table's byte size, plus a `table.fallback` with
/// the number of ladder steps the budget gate descended whenever the
/// chosen layout differs from the preferred one.
#[inline]
fn record_table_trace(
    tr: Option<&TraceMarks>,
    gate: Option<&BudgetGate>,
    chosen: TableKind,
    bytes: usize,
) {
    let Some(t) = tr else { return };
    t.tracer.instant(t.table_build, bytes as u64);
    if let Some(gate) = gate.filter(|g| g.preferred != chosen) {
        let steps = gate
            .preferred
            .ladder()
            .iter()
            .position(|&k| k == chosen)
            .unwrap_or(0) as u64;
        t.tracer.instant(t.table_fallback, steps);
    }
}

/// What every DP pass of a run reads besides its coloring: fixed for the
/// whole run.
#[derive(Clone, Copy)]
struct Pass<'a> {
    src: Source<'a>,
    labels: Option<&'a [u8]>,
    t: &'a Template,
    pt: &'a PartitionTree,
    ctx: &'a DpContext,
    /// The layout the run asked for (the top of the budget ladder).
    preferred: TableKind,
    gate: Option<&'a BudgetGate>,
    cancel: Option<&'a CancelToken>,
    /// Hand back the root table's per-vertex row sums.
    want_row_sums: bool,
    /// Keep every table alive to the end of the pass instead of releasing
    /// each after its last consumer.
    retain: bool,
    ins: &'a Instruments,
}

/// Monomorphization dispatch on the table layout. Budgeted runs pick a
/// layout per subtemplate at run time, so they go through the
/// layout-erased [`AnyTable`] instead of a concrete monomorphization.
fn dispatch_iteration(
    pass: &Pass<'_>,
    coloring: &[u8],
    inner_parallel: bool,
    stall: Option<Duration>,
) -> Result<IterationOutput, CountError> {
    fn run<T: CountTable>(
        pass: &Pass<'_>,
        coloring: &[u8],
        inner_parallel: bool,
        stall: Option<Duration>,
    ) -> Result<IterationOutput, CountError> {
        run_iteration::<T>(pass, coloring, inner_parallel, stall).map(|(out, _)| out)
    }
    let run = match (pass.gate, pass.preferred) {
        (Some(_), _) => run::<AnyTable>,
        (None, TableKind::Dense) => run::<DenseTable>,
        (None, TableKind::Lazy) => run::<LazyTable>,
        (None, TableKind::Hash) => run::<HashCountTable>,
    };
    run(pass, coloring, inner_parallel, stall)
}

/// One DP pass over `coloring` that keeps every canonical class's table
/// (lazy layout) alive, for sampling to backtrack through.
pub(crate) fn retained_tables(
    g: &Graph,
    t: &Template,
    pt: &PartitionTree,
    ctx: &DpContext,
    coloring: &[u8],
) -> Vec<Option<Stored<LazyTable>>> {
    let pass = Pass {
        src: Source::Undirected(g),
        labels: None,
        t,
        pt,
        ctx,
        preferred: TableKind::Lazy,
        gate: None,
        cancel: None,
        want_row_sums: false,
        retain: true,
        ins: &Instruments::default(),
    };
    run_iteration::<LazyTable>(&pass, coloring, false, None)
        .expect("a pass without budget or cancellation cannot fail")
        .1
}

/// Runs one full bottom-up DP pass for one coloring (Alg. 2), handing
/// back the tables still held at its end. A chaos `stall` sleeps at every
/// subtemplate DP step.
#[allow(clippy::type_complexity)]
fn run_iteration<T: CountTable>(
    pass: &Pass<'_>,
    coloring: &[u8],
    inner_parallel: bool,
    stall: Option<Duration>,
) -> Result<(IterationOutput, Vec<Option<Stored<T>>>), CountError> {
    let Pass {
        src,
        labels,
        t,
        pt,
        ctx,
        preferred,
        gate,
        cancel,
        want_row_sums,
        retain,
        ins,
    } = *pass;
    let (rm, es) = (ins.metrics.as_ref(), ins.est.as_ref());
    let n = src.num_vertices();
    let mut stored: Vec<Option<Stored<T>>> = (0..pt.num_canon_classes()).map(|_| None).collect();
    let mut uses = pt.class_use_counts();
    // Maps canon class → the partition node that built its table, so
    // fascia-mem/1 can attribute a table's lifetime access counters when
    // it is released (tables accumulate reads until their last consumer).
    let mut class_node: Vec<Option<usize>> = vec![None; pt.num_canon_classes()];
    let mut live_bytes = ctx.index_bytes + coloring.len();
    let mut peak_bytes = live_bytes;
    // The paper's naive memory scheme materializes single-vertex
    // subtemplate tables too (Alg. 2 line 4 writes them). The improved
    // read path never touches them, but the Dense ("naive") layout pays
    // for the allocation — reproduced here so Fig. 6's comparison is
    // faithful. `ghost_singles` holds those allocations until their class
    // is released. Under a memory budget the whole point is not to
    // allocate what the DP never reads, so the gate suppresses them.
    let materialize_ghosts = preferred == TableKind::Dense && gate.is_none();
    let mut ghost_singles: Vec<Option<T>> = (0..pt.num_canon_classes()).map(|_| None).collect();

    for &idx in pt.unique_order() {
        if cancel.is_some_and(|c| c.is_cancelled()) {
            return Err(CountError::Cancelled);
        }
        let node = &pt.nodes()[idx as usize];
        let cid = node.canon_id as usize;
        let _node_scope = ins.enter(Phase::Node(idx), 0);
        if let Some(d) = stall {
            std::thread::sleep(d);
        }
        // Each materialized node yields its rows and, for a cut, the
        // child classes it consumes.
        let (batch, children): (RowBatch, Option<[usize; 2]>) = match node.kind {
            NodeKind::Vertex => {
                let label = labels.map(|_| t.label(node.root));
                if materialize_ghosts {
                    let mut batch = RowBatch::new(n, ctx.k);
                    for v in 0..n {
                        let ok = match (label, labels) {
                            (Some(l), Some(gl)) => gl[v] == l,
                            _ => true,
                        };
                        if ok {
                            batch.stage()[coloring[v] as usize] = 1.0;
                            batch.commit(v);
                        }
                    }
                    let table = T::from_batch_kind(preferred, batch);
                    live_bytes += table.bytes();
                    peak_bytes = peak_bytes.max(live_bytes);
                    if let Some(m) = rm {
                        m.table.record(&table);
                    }
                    ghost_singles[cid] = Some(table);
                    class_node[cid] = Some(idx as usize);
                }
                stored[cid] = Some(Stored::Single { label });
                continue;
            }
            NodeKind::Triangle { partners } => {
                let Source::Undirected(g) = src else {
                    unreachable!("directed templates are trees")
                };
                let batch = triangle_batch::<T>(
                    g,
                    labels,
                    t,
                    node,
                    partners,
                    ctx,
                    coloring,
                    inner_parallel,
                    cancel,
                    rm.map(|m| &m.triangle),
                );
                (batch, None)
            }
            NodeKind::Cut { active, passive } => {
                let a_node = &pt.nodes()[active as usize];
                let p_node = &pt.nodes()[passive as usize];
                let a_cid = a_node.canon_id as usize;
                let p_cid = p_node.canon_id as usize;
                let act = stored[a_cid].as_ref().expect("active child computed");
                let pas = stored[p_cid].as_ref().expect("passive child computed");
                let job = CutJob {
                    labels,
                    node,
                    a_node,
                    p_node,
                    act,
                    pas,
                    ctx,
                    coloring,
                    inner_parallel,
                    cancel,
                    cm: rm.map(|m| &m.cut),
                };
                let _kph = ins.enter(Phase::KernelVectorized, 0);
                let mut batch = T::new_batch(n, ctx.nc[node.size as usize]);
                // The template arc across a directed cut picks which
                // arcs the neighbor sum walks.
                match src {
                    Source::Undirected(g) => cut_batch(g, &job, &mut batch),
                    Source::Directed(g, dt) if dt.points_from(node.root, p_node.root) => {
                        cut_batch(&OutArcs(g), &job, &mut batch)
                    }
                    Source::Directed(g, _) => cut_batch(&InArcs(g), &job, &mut batch),
                }
                (batch, Some([a_cid, p_cid]))
            }
        };
        let kind = match gate {
            Some(gate) => gate.choose(
                n,
                batch.num_colorsets(),
                batch.active_rows(),
                batch.live_entries(),
                live_bytes,
                rm,
            )?,
            None => preferred,
        };
        let table = {
            let _bph = ins.enter(Phase::TableBuild, 0);
            T::from_batch_kind(kind, batch)
        };
        record_table_trace(ins.trace.as_ref(), gate, table.kind(), table.bytes());
        live_bytes += table.bytes();
        peak_bytes = peak_bytes.max(live_bytes);
        if let Some(m) = rm {
            m.table.record(&table);
        }
        stored[cid] = Some(Stored::Table(table));
        class_node[cid] = Some(idx as usize);
        // Release children that have no remaining consumers.
        for child_cid in children.into_iter().flatten() {
            uses[child_cid] -= 1;
            if uses[child_cid] == 0 && child_cid != cid && !retain {
                if let Some(Stored::Table(old)) = stored[child_cid].take() {
                    if let Some(ci) = class_node[child_cid] {
                        ins.record_table(ci, &old);
                    }
                    live_bytes -= old.bytes();
                }
                if let Some(ghost) = ghost_singles[child_cid].take() {
                    if let Some(ci) = class_node[child_cid] {
                        ins.record_table(ci, &ghost);
                    }
                    live_bytes -= ghost.bytes();
                }
            }
        }
    }

    // An inner loop that bailed early on cancellation leaves truncated
    // rows behind; the iteration must be discarded, not aggregated.
    if cancel.is_some_and(|c| c.is_cancelled()) {
        return Err(CountError::Cancelled);
    }

    // Final aggregation (Alg. 2, line 20).
    let root = stored[pt.root().canon_id as usize]
        .as_ref()
        .expect("root table computed");
    let row_sum = |v: usize| -> f64 {
        match root {
            // Single-vertex template: each matching vertex is one embedding.
            Stored::Single { label } => match (label, labels) {
                (Some(l), Some(gl)) => (gl[v] == *l) as u8 as f64,
                _ => 1.0,
            },
            Stored::Table(table) => match table.row_slice(v) {
                Some(row) => row.iter().sum::<f64>(),
                None => (0..table.num_colorsets()).map(|cs| table.get(v, cs)).sum(),
            },
        }
    };
    let colorful_total = match root {
        Stored::Single { .. } => (0..n).map(row_sum).sum(),
        Stored::Table(table) => table.total(),
    };
    let row_sums: Option<Vec<f64>> =
        (want_row_sums || es.is_some()).then(|| (0..n).map(row_sum).collect());

    // Estimator-observability stratum capture: split the root table's
    // total by the root vertex's assigned color and by its degree class.
    // Color is the stratum key (not the root table's colorset columns —
    // the root subtemplate spans all k colors, so that dimension is always
    // a single column). Purely additional reads — `colorful_total` is
    // already fixed, so attaching an estimator collector cannot perturb
    // the count.
    let est_strata = es.zip(row_sums.as_ref()).map(|(e, sums)| {
        let mut by_class = vec![0.0f64; e.num_classes];
        let mut by_color = vec![0.0f64; ctx.k];
        for (v, &sum) in sums.iter().enumerate() {
            if sum != 0.0 {
                by_color[coloring[v] as usize] += sum;
                by_class[e.deg_class[v] as usize] += sum;
            }
        }
        EstIterStrata {
            by_colorset: by_color,
            by_class,
        }
    });

    // Record tables still alive at the end of the iteration (the root and
    // any stragglers kept by the use-count discipline). Doing it after
    // aggregation means the root's access counters include the final
    // `total()`/row reads — the table's complete lifetime.
    if ins.mem.is_some() {
        for (cid, slot) in stored.iter().enumerate() {
            if let (Some(Stored::Table(table)), Some(ci)) = (slot, class_node[cid]) {
                ins.record_table(ci, table);
            }
            if let (Some(ghost), Some(ci)) = (ghost_singles[cid].as_ref(), class_node[cid]) {
                ins.record_table(ci, ghost);
            }
        }
    }

    let out = IterationOutput {
        colorful_total,
        peak_bytes,
        root_row_sums: row_sums.filter(|_| want_row_sums),
        est_strata,
    };
    Ok((out, stored))
}

/// Base-case rows for a triangle subtemplate rooted at `node.root`:
/// ordered neighbor pairs (u, w) of v that close a triangle with distinct
/// colors and matching labels, with optional base-case instrumentation.
/// A vertex's row is committed only when it has a colorful hit. Rows are
/// staged in the batch form layout `T` builds from.
#[allow(clippy::too_many_arguments)]
fn triangle_batch<T: CountTable>(
    g: &Graph,
    labels: Option<&[u8]>,
    t: &Template,
    node: &SubNode,
    partners: [u8; 2],
    ctx: &DpContext,
    coloring: &[u8],
    inner_parallel: bool,
    cancel: Option<&CancelToken>,
    tm: Option<&TriangleMetrics>,
) -> RowBatch {
    let want = labels.map(|gl| {
        (
            gl,
            t.label(node.root),
            t.label(partners[0]),
            t.label(partners[1]),
        )
    });
    let binom = &ctx.binom;
    let compute = |_: &mut (), batch: &mut RowBatch, v: usize, slot_v: usize| {
        // Cheap cooperative cancellation poll: one mask test per vertex,
        // one atomic load per POLL_INTERVAL vertices. A bailed-out loop
        // yields a truncated batch, which the caller discards.
        if v & (POLL_INTERVAL - 1) == 0 && cancel.is_some_and(|c| c.is_cancelled()) {
            return;
        }
        if let Some((gl, lr, _, _)) = want {
            if gl[v] != lr {
                return;
            }
        }
        let cv = coloring[v];
        let neigh = g.neighbors(v);
        let row = batch.stage();
        // Colorful-hit accounting for the base case: closures examined at
        // the w level vs. those whose three colors are distinct.
        let mut cand = 0u64;
        let mut hits = 0u64;
        // For each neighbor u, walk the sorted intersection N(v) ∩ N(u):
        // each common neighbor w closes the triangle (v, u, w). Ordered
        // (u, w) pairs are needed because the two template partners may
        // carry different labels.
        for &u in neigh {
            if let Some((gl, _, lu, _)) = want {
                if gl[u as usize] != lu {
                    continue;
                }
            }
            let cu = coloring[u as usize];
            if cu == cv {
                continue;
            }
            let nu = g.neighbors(u as usize);
            let (mut i, mut j) = (0usize, 0usize);
            while i < neigh.len() && j < nu.len() {
                match neigh[i].cmp(&nu[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        let w = neigh[i];
                        i += 1;
                        j += 1;
                        if w == u {
                            continue;
                        }
                        if let Some((gl, _, _, lw)) = want {
                            if gl[w as usize] != lw {
                                continue;
                            }
                        }
                        let cw = coloring[w as usize];
                        cand += 1;
                        if cw == cv || cw == cu {
                            continue;
                        }
                        hits += 1;
                        let mut set = [cv, cu, cw];
                        set.sort_unstable();
                        row[fascia_combin::index_of_set(&set, binom)] += 1.0;
                    }
                }
            }
        }
        if let Some(tm) = tm {
            if cand != 0 {
                tm.candidates.add(cand);
                tm.colorful.add(hits);
            }
        }
        if hits != 0 {
            batch.commit(slot_v);
        }
    };
    let mut batch = T::new_batch(g.num_vertices(), ctx.nc[3]);
    run_pass(&mut batch, inner_parallel, || (), compute, |_, _| {});
    batch
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{count_exact, count_exact_labeled};
    use fascia_graph::gen::{gnm, random_connected};
    use fascia_graph::random_labels;
    use fascia_template::NamedTemplate;

    fn cfg(iterations: usize) -> CountConfig {
        CountConfig {
            iterations,
            parallel: ParallelMode::Serial,
            seed: 1234,
            ..CountConfig::default()
        }
    }

    /// Estimates must converge to the exact count on small inputs.
    #[test]
    fn converges_to_exact_for_small_templates() {
        let g = gnm(60, 170, 7);
        for t in [
            Template::path(3),
            Template::path(4),
            Template::star(4),
            Template::spider(&[1, 1, 2]),
        ] {
            let exact = count_exact(&g, &t) as f64;
            let r = count_template(&g, &t, &cfg(800)).unwrap();
            let rel = (r.estimate - exact).abs() / exact.max(1.0);
            assert!(
                rel < 0.08,
                "template {t:?}: estimate {} vs exact {exact} (rel {rel})",
                r.estimate
            );
        }
    }

    #[test]
    fn converges_on_triangle_template() {
        let g = gnm(40, 150, 3);
        let t = Template::triangle();
        let exact = count_exact(&g, &t) as f64;
        assert!(exact > 0.0, "test graph needs triangles");
        let r = count_template(&g, &t, &cfg(1200)).unwrap();
        let rel = (r.estimate - exact).abs() / exact;
        assert!(rel < 0.1, "estimate {} vs exact {exact}", r.estimate);
    }

    #[test]
    fn converges_on_triangle_with_pendant() {
        let g = gnm(40, 150, 19);
        let t = Template::from_edges(4, &[(0, 1), (1, 2), (0, 2), (0, 3)]).unwrap();
        let exact = count_exact(&g, &t) as f64;
        assert!(exact > 0.0);
        let r = count_template(&g, &t, &cfg(1200)).unwrap();
        let rel = (r.estimate - exact).abs() / exact;
        assert!(rel < 0.12, "estimate {} vs exact {exact}", r.estimate);
    }

    /// All three table layouts must produce bitwise-identical estimates.
    #[test]
    fn table_kinds_agree_exactly() {
        let g = gnm(50, 160, 21);
        let t = NamedTemplate::U5_2.template();
        let base = cfg(5);
        let mut results = Vec::new();
        for kind in TableKind::all() {
            let mut c = base.clone();
            c.table = kind;
            results.push(count_template(&g, &t, &c).unwrap().per_iteration);
        }
        assert_eq!(results[0], results[1], "dense vs lazy");
        assert_eq!(results[0], results[2], "dense vs hash");
    }

    /// Both partition strategies count the same thing.
    #[test]
    fn strategies_agree_exactly() {
        let g = gnm(50, 160, 22);
        for t in [
            NamedTemplate::U5_2.template(),
            NamedTemplate::U7_2.template(),
        ] {
            let mut one = cfg(4);
            one.strategy = PartitionStrategy::OneAtATime;
            let mut bal = cfg(4);
            bal.strategy = PartitionStrategy::Balanced;
            let a = count_template(&g, &t, &one).unwrap().per_iteration;
            let b = count_template(&g, &t, &bal).unwrap().per_iteration;
            assert_eq!(a, b, "strategies disagree for {t:?}");
        }
    }

    /// Serial, inner-parallel and outer-parallel modes are bitwise equal.
    #[test]
    fn parallel_modes_agree_exactly() {
        let g = gnm(45, 140, 23);
        let t = Template::path(5);
        let runs: Vec<Vec<f64>> = [
            ParallelMode::Serial,
            ParallelMode::InnerLoop,
            ParallelMode::OuterLoop,
        ]
        .into_iter()
        .map(|mode| {
            let mut c = cfg(6);
            c.parallel = mode;
            count_template(&g, &t, &c).unwrap().per_iteration
        })
        .collect();
        assert_eq!(runs[0], runs[1], "serial vs inner");
        assert_eq!(runs[0], runs[2], "serial vs outer");
    }

    #[test]
    fn labeled_counting_converges() {
        let g = gnm(50, 170, 29);
        let gl = random_labels(50, 2, 5);
        let t = Template::path(3).with_labels(vec![0, 1, 0]).unwrap();
        let exact = count_exact_labeled(&g, &gl, &t) as f64;
        assert!(exact > 0.0);
        let r = count_template_labeled(&g, &gl, &t, &cfg(800)).unwrap();
        let rel = (r.estimate - exact).abs() / exact;
        assert!(rel < 0.1, "estimate {} vs exact {exact}", r.estimate);
    }

    #[test]
    fn single_label_equals_unlabeled() {
        let g = gnm(40, 120, 31);
        let gl = vec![0u8; 40];
        let t_plain = Template::path(4);
        let t_lab = Template::path(4).with_labels(vec![0; 4]).unwrap();
        let a = count_template(&g, &t_plain, &cfg(5)).unwrap().per_iteration;
        let b = count_template_labeled(&g, &gl, &t_lab, &cfg(5))
            .unwrap()
            .per_iteration;
        assert_eq!(a, b);
    }

    #[test]
    fn extra_colors_still_converge() {
        let g = gnm(50, 150, 37);
        let t = Template::path(4);
        let exact = count_exact(&g, &t) as f64;
        let mut c = cfg(600);
        c.colors = Some(6); // k > template size
        let r = count_template(&g, &t, &c).unwrap();
        let rel = (r.estimate - exact).abs() / exact;
        assert!(rel < 0.1, "estimate {} vs exact {exact}", r.estimate);
        assert!(r.colorful_probability > colorful_probability(4, 4));
    }

    #[test]
    fn single_vertex_template_counts_vertices() {
        let g = gnm(33, 60, 41);
        let t = Template::from_edges(1, &[]).unwrap();
        let r = count_template(&g, &t, &cfg(3)).unwrap();
        assert_eq!(r.estimate, 33.0);
    }

    #[test]
    fn edge_template_counts_edges() {
        let g = gnm(40, 111, 43);
        let t = Template::path(2);
        let r = count_template(&g, &t, &cfg(2000)).unwrap();
        let rel = (r.estimate - 111.0).abs() / 111.0;
        assert!(rel < 0.08, "estimate {} vs 111", r.estimate);
    }

    #[test]
    fn rooted_counts_sum_matches_total() {
        // Σ_v graphletdegree(v, root orbit) = count * (orbit size in T):
        // for the path end orbit of P3, each occurrence has 2 end slots.
        let g = gnm(40, 130, 47);
        let t = Template::path(3);
        let c = cfg(400);
        let rooted = rooted_counts(&g, &t, 0, &c).unwrap();
        let total: f64 = rooted.per_vertex.iter().sum();
        let exact = count_exact(&g, &t) as f64;
        let rel = (total / 2.0 - exact).abs() / exact;
        assert!(rel < 0.1, "rooted sum/2 {} vs exact {exact}", total / 2.0);
    }

    #[test]
    fn rooted_center_orbit_of_p3() {
        let g = gnm(40, 130, 53);
        let t = Template::path(3);
        let c = cfg(400);
        let rooted = rooted_counts(&g, &t, 1, &c).unwrap();
        let total: f64 = rooted.per_vertex.iter().sum();
        let exact = count_exact(&g, &t) as f64;
        // Each occurrence has exactly one center slot.
        let rel = (total - exact).abs() / exact;
        assert!(rel < 0.1, "rooted center sum {total} vs exact {exact}");
    }

    #[test]
    fn memory_accounting_orders_layouts() {
        // On a sparse low-degree graph with a long path, hash < lazy <=
        // dense (the Fig. 7 relationship).
        let g = fascia_graph::gen::road_grid(40, 40, 1900, 3);
        let t = Template::path(7);
        let mut peaks = Vec::new();
        for kind in TableKind::all() {
            let mut c = cfg(1);
            c.table = kind;
            peaks.push((kind, count_template(&g, &t, &c).unwrap().peak_table_bytes));
        }
        let dense = peaks[0].1;
        let lazy = peaks[1].1;
        let hash = peaks[2].1;
        assert!(lazy <= dense, "lazy {lazy} vs dense {dense}");
        assert!(hash < dense, "hash {hash} vs dense {dense}");
    }

    #[test]
    fn error_paths() {
        let g = gnm(10, 20, 1);
        let t = Template::path(3);
        // not enough colors
        let mut c = cfg(1);
        c.colors = Some(2);
        assert!(matches!(
            count_template(&g, &t, &c),
            Err(CountError::NotEnoughColors { .. })
        ));
        // zero iterations
        let mut c = cfg(1);
        c.iterations = 0;
        assert_eq!(
            count_template(&g, &t, &c).unwrap_err(),
            CountError::NoIterations
        );
        // labeled template without labels
        let tl = Template::path(3).with_labels(vec![0, 0, 0]).unwrap();
        assert_eq!(
            count_template(&g, &tl, &cfg(1)).unwrap_err(),
            CountError::LabelsRequired
        );
        // label length mismatch
        assert_eq!(
            count_template_labeled(&g, &[0u8; 3], &tl, &cfg(1)).unwrap_err(),
            CountError::LabelLengthMismatch
        );
    }

    /// Metrics on, disabled, or absent must not change any count (the
    /// instrumentation is observe-only), and an enabled registry must end
    /// up populated with the engine's metric families.
    #[test]
    fn metrics_do_not_change_counts() {
        let g = gnm(45, 150, 83);
        let t = NamedTemplate::U5_2.template();
        let absent = cfg(6);
        let disabled = CountConfig {
            metrics: Some(Arc::new(Metrics::disabled())),
            ..cfg(6)
        };
        let registry = Arc::new(Metrics::new());
        let enabled = CountConfig {
            metrics: Some(Arc::clone(&registry)),
            ..cfg(6)
        };
        let a = count_template(&g, &t, &absent).unwrap();
        let d = count_template(&g, &t, &disabled).unwrap();
        let e = count_template(&g, &t, &enabled).unwrap();
        assert_eq!(a.per_iteration, d.per_iteration, "disabled registry");
        assert_eq!(a.per_iteration, e.per_iteration, "enabled registry");
        assert_eq!(a.estimate, e.estimate);
        // The enabled run recorded the engine metric families.
        assert_eq!(registry.counter("engine.iterations.total").get(), 6);
        assert_eq!(registry.histogram("engine.coloring_ns").count(), 6);
        assert_eq!(registry.histogram("engine.iteration_ns").count(), 6);
        assert!(registry.gauge("table.bytes.peak").get() > 0);
        assert!(registry.counter("cut.roots.visited").get() > 0);
        let json = registry.to_json();
        assert!(json.contains("engine.dp_ns.n"), "per-subtemplate spans");
    }

    /// Outer-loop parallel runs record per-thread iteration counts whose
    /// shards sum exactly to the iteration total (Fig. 9 visibility).
    #[test]
    fn metrics_expose_per_thread_work_counts() {
        let g = gnm(45, 150, 89);
        let t = Template::path(5);
        let registry = Arc::new(Metrics::new());
        let c = CountConfig {
            metrics: Some(Arc::clone(&registry)),
            parallel: ParallelMode::OuterLoop,
            ..cfg(12)
        };
        let serial = count_template(&g, &t, &cfg(12)).unwrap();
        let outer = count_template(&g, &t, &c).unwrap();
        assert_eq!(serial.per_iteration, outer.per_iteration);
        let iters = registry.counter("engine.iterations.total");
        assert_eq!(iters.get(), 12);
        assert_eq!(iters.shard_values().iter().sum::<u64>(), 12);
        // Visited + skipped partitions the root-vertex scans exactly.
        let visited = registry.counter("cut.roots.visited").get();
        let skipped = registry.counter("cut.roots.skipped").get();
        // P5 one-at-a-time: 4 cut nodes (sizes 2..=5) scan all 45
        // vertices in each of the 12 iterations.
        assert_eq!(visited + skipped, 45 * 4 * 12);
    }

    /// The hash layout reports probe statistics through the registry.
    #[test]
    fn metrics_report_hash_probe_stats() {
        let g = gnm(40, 120, 97);
        let registry = Arc::new(Metrics::new());
        let c = CountConfig {
            metrics: Some(Arc::clone(&registry)),
            table: TableKind::Hash,
            ..cfg(3)
        };
        count_template(&g, &Template::path(4), &c).unwrap();
        let inserts = registry.counter("table.probe.inserts").get();
        let steps = registry.counter("table.probe.steps").get();
        assert!(inserts > 0, "hash tables were built");
        assert!(steps >= inserts, "each insert takes at least one probe");
        assert_eq!(
            inserts,
            registry.counter("table.entries.live").get(),
            "every live entry was inserted once"
        );
    }

    #[test]
    fn determinism_across_runs() {
        let g = gnm(30, 90, 61);
        let t = NamedTemplate::U5_2.template();
        let a = count_template(&g, &t, &cfg(7)).unwrap();
        let b = count_template(&g, &t, &cfg(7)).unwrap();
        assert_eq!(a.per_iteration, b.per_iteration);
        assert_eq!(a.estimate, b.estimate);
    }

    #[test]
    fn zero_count_when_template_absent() {
        // A star-6 cannot embed into a cycle (max degree 2).
        let ring: Vec<(u32, u32)> = (0..20u32).map(|v| (v, (v + 1) % 20)).collect();
        let g = fascia_graph::Graph::from_edges(20, &ring);
        let r = count_template(&g, &Template::star(6), &cfg(50)).unwrap();
        assert_eq!(r.estimate, 0.0);
    }

    #[test]
    fn path_count_on_cycle_is_known() {
        // A cycle of n vertices has exactly n paths on k vertices.
        let n = 24u32;
        let ring: Vec<(u32, u32)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
        let g = fascia_graph::Graph::from_edges(n as usize, &ring);
        for k in [3usize, 5] {
            let r = count_template(&g, &Template::path(k), &cfg(3000)).unwrap();
            let rel = (r.estimate - n as f64).abs() / n as f64;
            assert!(rel < 0.1, "P{k} on C{n}: {}", r.estimate);
        }
    }

    #[test]
    fn big_template_runs_on_connected_graph() {
        // Smoke: U12-2 on a modest graph completes and is non-negative.
        let g = random_connected(200, 500, 9);
        let t = NamedTemplate::U12_2.template();
        let r = count_template(&g, &t, &cfg(2)).unwrap();
        assert!(r.estimate >= 0.0);
        assert!(r.peak_table_bytes > 0);
    }

    /// Per-iteration estimates are unbiased: their mean over many
    /// iterations matches exact counts within a loose statistical bound
    /// (already covered), and each individual estimate is finite.
    #[test]
    fn per_iteration_values_are_finite() {
        let g = gnm(40, 120, 71);
        let r = count_template(&g, &Template::path(5), &cfg(50)).unwrap();
        assert_eq!(r.per_iteration.len(), 50);
        assert_eq!(r.iterations_run, 50);
        assert!(r.per_iteration.iter().all(|x| x.is_finite() && *x >= 0.0));
        assert!(r.std_error > 0.0);
        assert!((r.ci95 - 1.96 * r.std_error).abs() < 1e-12);
    }

    /// The ISSUE's acceptance scenario: on a seeded Erdős–Rényi graph with
    /// a known exact count, `RelativeError{0.05, 0.05}` stops in far fewer
    /// iterations than the a-priori AYZ bound, and the truth lies within
    /// the reported 95% CI (with 2x slack for the 5% miss probability to
    /// stay deterministic-robust across seeds).
    #[test]
    fn adaptive_rule_stops_early_and_covers_truth() {
        let g = gnm(60, 180, 13);
        let t = Template::path(4);
        let exact = count_exact(&g, &t) as f64;
        let apriori = fascia_combin::iterations_for(0.05, 0.05, t.size()) as usize;
        let c = CountConfig {
            stop: Some(crate::stats::StopRule::RelativeError {
                epsilon: 0.05,
                delta: 0.05,
                min_iters: 8,
                max_iters: apriori,
            }),
            parallel: ParallelMode::Serial,
            seed: 7,
            ..CountConfig::default()
        };
        let r = count_template(&g, &t, &c).unwrap();
        assert!(
            r.iterations_run < apriori,
            "adaptive used {} of the a-priori {apriori}",
            r.iterations_run
        );
        assert_eq!(r.iterations_run, r.per_iteration.len());
        assert!(
            (exact - r.estimate).abs() <= 2.0 * r.ci95,
            "exact {exact} vs {} ± {}",
            r.estimate,
            r.ci95
        );
        // And it actually converged to the requested tightness.
        assert!(
            r.ci95 / r.estimate <= 0.051,
            "rel CI {}",
            r.ci95 / r.estimate
        );
    }

    /// A `FixedIterations` stop rule is the same thing as the classic
    /// `iterations` field — bitwise.
    #[test]
    fn fixed_stop_rule_equals_iterations_field() {
        let g = gnm(45, 140, 77);
        let t = Template::path(5);
        let classic = count_template(&g, &t, &cfg(9)).unwrap();
        let ruled = count_template(
            &g,
            &t,
            &CountConfig {
                iterations: 1, // ignored: `stop` takes precedence
                stop: Some(crate::stats::StopRule::FixedIterations(9)),
                ..cfg(9)
            },
        )
        .unwrap();
        assert_eq!(classic.per_iteration, ruled.per_iteration);
        assert_eq!(classic.estimate, ruled.estimate);
        assert_eq!(ruled.iterations_run, 9);
    }

    /// With an adaptive rule active, every parallel mode still computes the
    /// same deterministic per-iteration series — modes may stop at
    /// different points (serial checks every iteration, outer/hybrid at
    /// wave barriers) but the iterations they share are bitwise equal, and
    /// outer/hybrid keep per-worker private tables (nothing here adds
    /// shared mutable state).
    #[test]
    fn parallel_modes_agree_with_adaptive_rule_active() {
        let g = gnm(45, 140, 23);
        let t = Template::path(5);
        let rule = crate::stats::StopRule::RelativeError {
            epsilon: 0.10,
            delta: 0.05,
            min_iters: 6,
            max_iters: 600,
        };
        let runs: Vec<CountResult> = [
            ParallelMode::Serial,
            ParallelMode::InnerLoop,
            ParallelMode::OuterLoop,
            ParallelMode::Hybrid,
        ]
        .into_iter()
        .map(|mode| {
            let c = CountConfig {
                parallel: mode,
                stop: Some(rule.clone()),
                ..cfg(6)
            };
            count_template(&g, &t, &c).unwrap()
        })
        .collect();
        for r in &runs {
            assert!(r.iterations_run >= 6 && r.iterations_run <= 600);
        }
        let shortest = runs.iter().map(|r| r.iterations_run).min().unwrap();
        for r in &runs[1..] {
            assert_eq!(
                runs[0].per_iteration[..shortest],
                r.per_iteration[..shortest],
                "shared iteration prefix must be bitwise equal"
            );
        }
        // Serial and inner check after every iteration, so they stop at
        // the identical point with identical results.
        assert_eq!(runs[0].per_iteration, runs[1].per_iteration);
        assert_eq!(runs[0].estimate, runs[1].estimate);
    }

    /// Adaptive runs surface their trajectory through the registry:
    /// `iterations.saved` accounts for the unused budget and the running
    /// estimate/CI gauges hold the final checked values.
    #[test]
    fn adaptive_metrics_record_savings_and_trajectory() {
        let g = gnm(60, 180, 13);
        let t = Template::path(4);
        let registry = Arc::new(Metrics::new());
        let c = CountConfig {
            stop: Some(crate::stats::StopRule::RelativeError {
                epsilon: 0.05,
                delta: 0.05,
                min_iters: 8,
                max_iters: 5_000,
            }),
            parallel: ParallelMode::Serial,
            seed: 7,
            metrics: Some(Arc::clone(&registry)),
            ..CountConfig::default()
        };
        let r = count_template(&g, &t, &c).unwrap();
        let ran = registry.counter("engine.iterations.total").get();
        let saved = registry.counter("engine.iterations.saved").get();
        assert_eq!(ran, r.iterations_run as u64);
        assert_eq!(ran + saved, 5_000);
        assert!(registry.counter("engine.adaptive.checks").get() >= 1);
        assert_eq!(
            registry.gauge("engine.adaptive.estimate").get(),
            r.estimate.round() as u64
        );
        assert!(registry.gauge("engine.adaptive.ci_half_width").get() > 0);
    }

    /// Rooted counting honors the adaptive rule too, and the result still
    /// satisfies the orbit-sum identity.
    #[test]
    fn rooted_counts_with_adaptive_rule() {
        let g = gnm(40, 130, 47);
        let t = Template::path(3);
        let c = CountConfig {
            stop: Some(crate::stats::StopRule::RelativeError {
                epsilon: 0.05,
                delta: 0.05,
                min_iters: 20,
                max_iters: 2_000,
            }),
            parallel: ParallelMode::Serial,
            seed: 1234,
            ..CountConfig::default()
        };
        let rooted = rooted_counts(&g, &t, 0, &c).unwrap();
        let total: f64 = rooted.per_vertex.iter().sum();
        let exact = count_exact(&g, &t) as f64;
        let rel = (total / 2.0 - exact).abs() / exact;
        assert!(rel < 0.1, "rooted sum/2 {} vs exact {exact}", total / 2.0);
    }

    #[test]
    fn invalid_stop_rules_are_rejected() {
        let g = gnm(10, 20, 1);
        let t = Template::path(3);
        for bad in [
            crate::stats::StopRule::RelativeError {
                epsilon: 0.0,
                delta: 0.05,
                min_iters: 1,
                max_iters: 10,
            },
            crate::stats::StopRule::RelativeError {
                epsilon: 0.05,
                delta: 1.5,
                min_iters: 1,
                max_iters: 10,
            },
            crate::stats::StopRule::RelativeError {
                epsilon: 0.05,
                delta: 0.05,
                min_iters: 20,
                max_iters: 10,
            },
        ] {
            let c = CountConfig {
                stop: Some(bad),
                ..cfg(5)
            };
            assert!(matches!(
                count_template(&g, &t, &c),
                Err(CountError::InvalidStopRule(_))
            ));
        }
    }
}

#[cfg(test)]
mod internal_tests {
    use super::*;
    use fascia_combin::{choose, set_of_index};

    /// The removal table must map every (set, member) pair to the correct
    /// reduced set index, and flag non-members with -1.
    #[test]
    fn removal_table_is_exact() {
        let binom = BinomialTable::new(fascia_combin::MAX_COLORS);
        for k in 3..=8usize {
            for h in 2..=k {
                let rem = build_removal_table(k, h, &binom);
                let nc = choose(k, h) as usize;
                assert_eq!(rem.len(), nc * k);
                for idx in 0..nc {
                    let set = set_of_index(idx, h, k, &binom);
                    for c in 0..k as u8 {
                        let r = rem[idx * k + c as usize];
                        if set.contains(&c) {
                            assert!(r >= 0);
                            let reduced = set_of_index(r as usize, h - 1, k, &binom);
                            let mut merged = reduced.clone();
                            merged.push(c);
                            merged.sort_unstable();
                            assert_eq!(merged, set, "k={k} h={h} idx={idx} c={c}");
                        } else {
                            assert_eq!(r, -1, "non-member must be -1");
                        }
                    }
                }
            }
        }
    }

    /// The kernel's color-major pair lists hold exactly the removal
    /// table's member entries for each color, `C(k-1, h-1)` per color,
    /// with both the set index and the reduced index strictly ascending
    /// (so the combine's reads and writes run sequentially).
    #[test]
    fn removal_pairs_are_color_major_rem() {
        let binom = BinomialTable::new(fascia_combin::MAX_COLORS);
        for k in 2..=12usize {
            for h in 2..=k {
                let rem = build_removal_table(k, h, &binom);
                let pairs = crate::kernel::removal_pairs(&rem, k);
                assert_eq!(pairs.len(), k);
                for (c, list) in pairs.iter().enumerate() {
                    let want: Vec<(u32, u32)> = (0..rem.len() / k)
                        .filter(|&i| rem[i * k + c] != -1)
                        .map(|i| (i as u32, rem[i * k + c] as u32))
                        .collect();
                    assert_eq!(list, &want, "k={k} h={h} c={c}");
                    assert_eq!(list.len(), choose(k - 1, h - 1) as usize);
                    for w in list.windows(2) {
                        assert!(
                            w[0].0 < w[1].0,
                            "set index not ascending: k={k} h={h} c={c}"
                        );
                        assert!(
                            w[0].1 < w[1].1,
                            "reduced index not ascending: k={k} h={h} c={c}"
                        );
                    }
                }
            }
        }
    }

    /// The DP context builds exactly the index tables the partition needs.
    #[test]
    fn context_builds_needed_tables_only() {
        let t = fascia_template::NamedTemplate::U7_2.template();
        let pt = PartitionTree::build(&t, PartitionStrategy::OneAtATime).unwrap();
        let ctx = DpContext::new(&pt, 7);
        for &idx in pt.unique_order() {
            let node = &pt.nodes()[idx as usize];
            if let fascia_template::partition::NodeKind::Cut { active, .. } = node.kind {
                let a = pt.nodes()[active as usize].size;
                if a == 1 {
                    assert!(ctx.removals.contains_key(&node.size));
                } else {
                    assert!(ctx.splits.contains_key(&(node.size, a)));
                }
            }
        }
        assert_eq!(ctx.nc[7], choose(7, 7) as usize);
        assert_eq!(ctx.nc[3], choose(7, 3) as usize);
    }

    #[test]
    fn for_error_meets_bound() {
        let cfg = CountConfig::for_error(0.5, 0.25, 3);
        assert_eq!(
            cfg.iterations as u64,
            fascia_combin::iterations_for(0.5, 0.25, 3)
        );
        assert!(cfg.iterations > 0);
    }
}

#[cfg(test)]
mod labeled_triangle_tests {
    use super::*;
    use crate::exact::count_exact_labeled;
    use fascia_graph::gen::gnm;
    use fascia_graph::random_labels;

    /// Labeled triangle templates exercise the triangle base case's label
    /// filters on root and both partners.
    #[test]
    fn labeled_triangle_converges() {
        let g = gnm(40, 170, 51);
        let gl = random_labels(40, 2, 9);
        // Distinct partner labels force the ordered-pair handling.
        let t = Template::triangle().with_labels(vec![0, 0, 1]).unwrap();
        let exact = count_exact_labeled(&g, &gl, &t) as f64;
        if exact == 0.0 {
            return;
        }
        let cfg = CountConfig {
            iterations: 2500,
            parallel: ParallelMode::Serial,
            seed: 4,
            ..CountConfig::default()
        };
        let r = count_template_labeled(&g, &gl, &t, &cfg).unwrap();
        let rel = (r.estimate - exact).abs() / exact;
        assert!(rel < 0.15, "estimate {} vs exact {exact}", r.estimate);
    }

    /// Summing labeled triangle counts over all label multisets recovers
    /// the unlabeled count (exact engines; validates the α bookkeeping of
    /// label-broken symmetry).
    #[test]
    fn labeled_triangle_partition_identity() {
        let g = gnm(35, 150, 53);
        let gl = random_labels(35, 2, 13);
        let unlabeled = crate::exact::count_exact(&g, &Template::triangle());
        // Label multisets over {0, 1} of size 3: 000, 001, 011, 111.
        let mut sum = 0u128;
        for labels in [vec![0u8, 0, 0], vec![0, 0, 1], vec![0, 1, 1], vec![1, 1, 1]] {
            let t = Template::triangle().with_labels(labels).unwrap();
            sum += count_exact_labeled(&g, &gl, &t);
        }
        assert_eq!(sum, unlabeled);
    }
}
