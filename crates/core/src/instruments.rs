//! Engine-side instrumentation: every observer handle one counting run
//! needs, resolved once from [`CountConfig`] before any iteration starts.
//!
//! Resolution (registry lookups, name interning) takes short mutexes, so
//! it happens exactly once per run. The hot loops then carry one
//! `&Instruments` and open one [`PhaseScope`] per phase boundary with
//! [`Instruments::enter`]; an absent sink costs one branch. Which phases
//! each sink sees is the phase table `FIXED` below plus one row per
//! partition node (DESIGN.md §8); the trace instants outside it are
//! listed in DESIGN.md §12.

use crate::engine::CountConfig;
use crate::est::RunEst;
use crate::mem::MemCollector;
use crate::metrics::RunMetrics;
use fascia_obs::alloc::{self, MemPhaseGuard, MemPhaseId};
use fascia_obs::{Histogram, NameId, PhaseGuard, PhaseId, Profiler, SpanTimer, TraceSpan, Tracer};
use fascia_table::CountTable;
use fascia_template::partition::NodeKind;
use fascia_template::PartitionTree;
use std::sync::Arc;

/// An engine phase some sink can observe.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Phase {
    Iteration,
    Coloring,
    Wave,
    CheckpointFlush,
    /// Row computation of a cut node, nested inside its node phase.
    KernelVectorized,
    /// Consuming kernel output into the chosen layout.
    TableBuild,
    /// One subtemplate's DP pass, by partition-node id.
    Node(u32),
}

/// The fixed rows of the phase table, in [`Phase::slot`] order: name,
/// metrics histogram, trace span, allocator phase. The profiler sees
/// every phase.
const FIXED: [(&str, Option<&str>, bool, bool); 6] = [
    ("iteration", Some("engine.iteration_ns"), true, true),
    ("coloring", Some("engine.coloring_ns"), true, true),
    ("wave", None, true, false),
    ("checkpoint.flush", None, true, false),
    ("kernel.vectorized", None, false, false),
    ("table.build", None, false, false),
];

impl Phase {
    /// Index into [`Instruments`]' handle table.
    fn slot(self) -> usize {
        match self {
            Phase::Iteration => 0,
            Phase::Coloring => 1,
            Phase::Wave => 2,
            Phase::CheckpointFlush => 3,
            Phase::KernelVectorized => 4,
            Phase::TableBuild => 5,
            Phase::Node(idx) => FIXED.len() + idx as usize,
        }
    }
}

/// One phase's handle in each sink that sees it.
#[derive(Clone, Default)]
struct Handles {
    hist: Option<Arc<Histogram>>,
    span: Option<NameId>,
    prof: Option<PhaseId>,
    alloc: Option<MemPhaseId>,
}

/// The tracer plus the interned names of its events outside the phase
/// table.
pub(crate) struct TraceMarks {
    pub tracer: Arc<Tracer>,
    pub table_build: NameId,
    pub table_fallback: NameId,
    pub checkpoint_resume: NameId,
    pub cancelled: NameId,
    pub panic_retry: NameId,
    pub adaptive_ci: NameId,
}

/// Every observer handle of one counting run. The default attaches
/// nothing.
#[derive(Default)]
pub(crate) struct Instruments {
    /// Counters and gauges (`None` when metrics are absent or disabled).
    pub metrics: Option<RunMetrics>,
    pub trace: Option<TraceMarks>,
    pub mem: Option<Arc<MemCollector>>,
    pub est: Option<RunEst>,
    profiler: Option<Arc<Profiler>>,
    /// Per-phase handles, indexed by [`Phase::slot`].
    phases: Vec<Handles>,
    /// Node name by partition-node id (`None` off the unique order).
    node_names: Vec<Option<String>>,
}

impl Instruments {
    /// Resolves every handle of `cfg`'s observers for the partition tree
    /// `pt`; `degrees` lists every graph vertex's degree, in vertex order,
    /// for the estimator's strata.
    pub(crate) fn resolve(
        cfg: &CountConfig,
        pt: &PartitionTree,
        degrees: impl Iterator<Item = usize>,
    ) -> Self {
        let metrics = cfg.metrics.as_deref().filter(|m| m.is_enabled());
        let tracer = cfg.tracer.as_deref();
        let profiler = cfg.profiler.as_deref();
        let handles = |name: &str, hist: Option<&str>, span: bool, allocs: bool| Handles {
            hist: metrics.zip(hist).map(|(m, h)| m.histogram(h)),
            span: tracer.filter(|_| span).map(|t| t.intern(name)),
            prof: profiler.map(|p| p.intern(name)),
            alloc: (allocs && cfg.mem.is_some()).then(|| alloc::intern_phase(name)),
        };
        let mut nodes = vec![Handles::default(); pt.nodes().len()];
        let mut node_names = vec![None; pt.nodes().len()];
        for &idx in pt.unique_order() {
            let n = &pt.nodes()[idx as usize];
            let kind = match n.kind {
                NodeKind::Vertex => "vertex",
                NodeKind::Triangle { .. } => "triangle",
                NodeKind::Cut { .. } => "cut",
            };
            let name = format!("dp.n{idx:02}.{kind}{}", n.size);
            let hist = format!("engine.dp_ns.{}", &name["dp.".len()..]);
            nodes[idx as usize] = handles(&name, Some(&hist), true, true);
            node_names[idx as usize] = Some(name);
        }
        let mut phases: Vec<Handles> = FIXED
            .iter()
            .map(|&(name, hist, span, allocs)| handles(name, hist, span, allocs))
            .collect();
        phases.extend(nodes);
        Self {
            metrics: metrics.map(RunMetrics::resolve),
            trace: cfg.tracer.as_ref().map(|t| TraceMarks {
                table_build: t.intern("table.build"),
                table_fallback: t.intern("table.fallback"),
                checkpoint_resume: t.intern("checkpoint.resume"),
                cancelled: t.intern("cancelled"),
                panic_retry: t.intern("panic.retry"),
                adaptive_ci: t.intern("adaptive.ci_permille"),
                tracer: Arc::clone(t),
            }),
            mem: cfg.mem.clone(),
            est: RunEst::resolve(cfg.est.as_ref(), degrees),
            profiler: cfg.profiler.clone(),
            phases,
            node_names,
        }
    }

    /// Enters `phase` in every sink that sees it (`arg` is the trace
    /// span's payload) until the returned scope drops.
    #[inline]
    pub(crate) fn enter(&self, phase: Phase, arg: u64) -> PhaseScope<'_> {
        let Some(h) = self.phases.get(phase.slot()) else {
            return PhaseScope::default();
        };
        let timer = SpanTimer::start_opt(h.hist.as_deref());
        let span = h
            .span
            .zip(self.trace.as_ref())
            .map(|(id, t)| t.tracer.span_arg(id, arg));
        let prof = h
            .prof
            .zip(self.profiler.as_deref())
            .map(|(id, p)| p.enter(id));
        PhaseScope {
            _alloc: h.alloc.map(alloc::enter_phase),
            _prof: prof,
            _span: span,
            _timer: timer,
        }
    }

    /// Folds a released table into the memory collector under partition
    /// node `idx`'s name.
    #[inline]
    pub(crate) fn record_table<T: CountTable>(&self, idx: usize, table: &T) {
        if let (Some(c), Some(Some(name))) = (&self.mem, self.node_names.get(idx)) {
            c.record(name, table);
        }
    }
}

/// The sinks one [`Instruments::enter`] entered. Fields drop in
/// declaration order, so the scope leaves the allocator phase, then the
/// profiler phase, then the trace span, then the timer.
#[must_use = "the phase lasts only while the scope is alive"]
#[derive(Default)]
pub(crate) struct PhaseScope<'a> {
    _alloc: Option<MemPhaseGuard>,
    _prof: Option<PhaseGuard<'a>>,
    _span: Option<TraceSpan<'a>>,
    _timer: Option<SpanTimer<'a>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use fascia_obs::Metrics;
    use fascia_template::{PartitionStrategy, Template};

    /// Which sinks a handle row covers, or a scope entered: histogram
    /// (timer), trace span, profiler, allocator.
    fn sinks(h: &Handles) -> [bool; 4] {
        let Handles {
            hist,
            span,
            prof,
            alloc,
        } = h;
        [
            hist.is_some(),
            span.is_some(),
            prof.is_some(),
            alloc.is_some(),
        ]
    }
    fn entered(s: &PhaseScope) -> [bool; 4] {
        let PhaseScope {
            _alloc,
            _prof,
            _span,
            _timer,
        } = s;
        [
            _timer.is_some(),
            _span.is_some(),
            _prof.is_some(),
            _alloc.is_some(),
        ]
    }

    fn resolve(cfg: &CountConfig) -> (PartitionTree, Instruments) {
        let pt = PartitionTree::build(&Template::path(5), PartitionStrategy::OneAtATime).unwrap();
        let ins = Instruments::resolve(cfg, &pt, std::iter::empty());
        (pt, ins)
    }

    #[test]
    fn nothing_attached_resolves_no_handles() {
        let disabled = CountConfig {
            metrics: Some(Arc::new(Metrics::disabled())),
            ..CountConfig::default()
        };
        for cfg in [CountConfig::default(), disabled] {
            let (pt, ins) = resolve(&cfg);
            assert!(ins.metrics.is_none() && ins.trace.is_none());
            assert!(ins.mem.is_none() && ins.est.is_none());
            assert!(ins.phases.iter().all(|h| sinks(h) == [false; 4]));
            let node = Phase::Node(pt.unique_order()[0]);
            for phase in [Phase::Iteration, Phase::TableBuild, node] {
                assert_eq!(entered(&ins.enter(phase, 0)), [false; 4]);
            }
        }
        let none = Instruments::default();
        assert_eq!(entered(&none.enter(Phase::Node(0), 0)), [false; 4]);
    }

    #[test]
    fn all_attached_each_phase_reaches_exactly_its_sinks() {
        let metrics = Arc::new(Metrics::new());
        let tracer = Arc::new(Tracer::new());
        let profiler = Arc::new(Profiler::new());
        let cfg = CountConfig {
            metrics: Some(Arc::clone(&metrics)),
            tracer: Some(Arc::clone(&tracer)),
            profiler: Some(Arc::clone(&profiler)),
            mem: Some(Arc::new(MemCollector::new())),
            ..CountConfig::default()
        };
        let (pt, ins) = resolve(&cfg);
        let (all, span_prof, prof) = (
            [true; 4],
            [false, true, true, false],
            [false, false, true, false],
        );
        for (phase, want) in [
            (Phase::Iteration, all),
            (Phase::Coloring, all),
            (Phase::Wave, span_prof),
            (Phase::CheckpointFlush, span_prof),
            (Phase::KernelVectorized, prof),
            (Phase::TableBuild, prof),
        ] {
            assert_eq!(sinks(&ins.phases[phase.slot()]), want, "{phase:?}");
            assert_eq!(entered(&ins.enter(phase, 0)), want, "{phase:?}");
        }
        assert_eq!(metrics.histogram("engine.iteration_ns").count(), 1);

        // Every unique-order node has one name, shared by all sinks;
        // nodes off the unique order have neither name nor handles.
        for (idx, name) in ins.node_names.iter().enumerate() {
            let h = &ins.phases[Phase::Node(idx as u32).slot()];
            let Some(name) = name else {
                assert!(!pt.unique_order().contains(&(idx as u32)));
                assert_eq!(sinks(h), [false; 4]);
                continue;
            };
            let id = format!("n{idx:02}");
            assert_eq!(name.split('.').take(2).collect::<Vec<_>>(), ["dp", &id]);
            let hist = metrics.histogram(&format!("engine.dp_ns.{}", &name[3..]));
            assert!(Arc::ptr_eq(h.hist.as_ref().unwrap(), &hist));
            assert_eq!(tracer.name_of(h.span.unwrap()), *name);
            assert_eq!(h.prof, Some(profiler.intern(name)));
            assert_eq!(h.alloc, Some(alloc::intern_phase(name)));
        }
        let named = ins.node_names.iter().flatten().count();
        assert_eq!(named, pt.unique_order().len());

        // Re-resolving against the same profiler reuses its ids.
        let (_, again) = resolve(&cfg);
        let prof_ids = |i: &Instruments| i.phases.iter().map(|h| h.prof).collect::<Vec<_>>();
        assert_eq!(prof_ids(&ins), prof_ids(&again));
    }
}
