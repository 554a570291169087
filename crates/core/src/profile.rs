//! Engine-side profiler-phase resolution — the sampling-profiler
//! counterpart of the `trace` module.
//!
//! Interning a phase name takes a short mutex, so the engine does it
//! exactly once per counting run, before any iteration starts. The hot
//! loops then carry an `Option<&RunProf>`: with profiling absent this is
//! `None` and each site costs a single pointer check; with profiling
//! present entering a phase is one relaxed store plus one release
//! `fetch_add` into the current thread's phase slot.
//!
//! The phase names deliberately match the trace-span taxonomy
//! (`iteration`, `coloring`, `wave`, `dp.n<idx>.<kind><size>`,
//! `checkpoint.flush`) so a flamegraph and a Chrome trace of the same run
//! speak the same vocabulary. The cut-node phases additionally split into
//! `kernel.vectorized` (row computation) and `table.build` (consuming
//! kernel output into the chosen layout).

use fascia_obs::{PhaseGuard, PhaseId, Profiler};
use fascia_template::partition::NodeKind;
use fascia_template::PartitionTree;
use std::sync::Arc;

/// All profiler-phase handles one counting run needs, interned up front.
pub(crate) struct RunProf {
    pub profiler: Arc<Profiler>,
    pub iteration: PhaseId,
    pub coloring: PhaseId,
    pub wave: PhaseId,
    /// Per-subtemplate phase, indexed by partition-node id (`None` for
    /// nodes outside the unique evaluation order).
    pub node: Vec<Option<PhaseId>>,
    pub checkpoint_flush: PhaseId,
    /// Cut-kernel phase (nested inside the node phase), so a flamegraph
    /// separates row computation from table construction.
    pub kernel_vectorized: PhaseId,
    /// Table-construction phase: consuming kernel output into the chosen
    /// layout.
    pub table_build: PhaseId,
}

impl RunProf {
    /// Interns every phase against `profiler` for the given partition
    /// tree. Returns `None` when profiling is absent, which is what the
    /// hot loops branch on.
    pub(crate) fn resolve(profiler: Option<&Arc<Profiler>>, pt: &PartitionTree) -> Option<Self> {
        let profiler = Arc::clone(profiler?);
        let mut node: Vec<Option<PhaseId>> = vec![None; pt.nodes().len()];
        for &idx in pt.unique_order() {
            let n = &pt.nodes()[idx as usize];
            let kind = match n.kind {
                NodeKind::Vertex => "vertex",
                NodeKind::Triangle { .. } => "triangle",
                NodeKind::Cut { .. } => "cut",
            };
            let name = format!("dp.n{idx:02}.{kind}{}", n.size);
            node[idx as usize] = Some(profiler.intern(&name));
        }
        Some(Self {
            iteration: profiler.intern("iteration"),
            coloring: profiler.intern("coloring"),
            wave: profiler.intern("wave"),
            node,
            checkpoint_flush: profiler.intern("checkpoint.flush"),
            kernel_vectorized: profiler.intern("kernel.vectorized"),
            table_build: profiler.intern("table.build"),
            profiler,
        })
    }

    /// Publishes a phase if profiling is on — the engine's idiom for
    /// optional instrumentation (`None` costs one branch).
    #[inline]
    pub(crate) fn enter_opt<'a>(
        pr: Option<&'a RunProf>,
        pick: impl FnOnce(&RunProf) -> PhaseId,
    ) -> Option<PhaseGuard<'a>> {
        pr.map(|p| p.profiler.enter(pick(p)))
    }

    /// Publishes the per-subtemplate phase for partition node `idx`, if
    /// both profiling and the node's phase are present.
    #[inline]
    pub(crate) fn node_enter_opt<'a>(
        pr: Option<&'a RunProf>,
        idx: usize,
    ) -> Option<PhaseGuard<'a>> {
        let p = pr?;
        Some(p.profiler.enter(p.node[idx]?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fascia_template::{PartitionStrategy, Template};

    #[test]
    fn resolve_requires_a_profiler() {
        let t = Template::path(5);
        let pt = PartitionTree::build(&t, PartitionStrategy::OneAtATime).unwrap();
        assert!(RunProf::resolve(None, &pt).is_none());
        let prof = Arc::new(Profiler::new());
        let pr = RunProf::resolve(Some(&prof), &pt).unwrap();
        for &idx in pt.unique_order() {
            assert!(pr.node[idx as usize].is_some());
        }
        // Re-resolving against the same profiler reuses the intern table.
        let again = RunProf::resolve(Some(&prof), &pt).unwrap();
        assert_eq!(pr.iteration, again.iteration);
    }

    #[test]
    fn optional_helpers_noop_when_absent() {
        assert!(RunProf::enter_opt(None, |p| p.iteration).is_none());
        assert!(RunProf::node_enter_opt(None, 0).is_none());
    }
}
