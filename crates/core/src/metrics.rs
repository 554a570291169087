//! Engine-side metric resolution.
//!
//! The registry lookup (name → handle) takes a mutex, so the engine does it
//! exactly once per counting run, before any iteration starts (as part of
//! the run's `Instruments`, which also owns the phase histograms). The
//! hot loops then carry an `Option<&RunMetrics>`: with metrics absent or
//! disabled this is `None` and each instrumentation site costs a single
//! pointer check.
//!
//! # Metric names
//!
//! All engine metrics live under these names (schema `fascia-obs/1`,
//! additive-only — see DESIGN.md §Observability):
//!
//! | name | kind | meaning |
//! |------|------|---------|
//! | `engine.coloring_ns` | histogram | per-iteration random-coloring time |
//! | `engine.iteration_ns` | histogram | per-iteration full DP time |
//! | `engine.dp_ns.<node>` | histogram | per-subtemplate DP time (one per partition node, e.g. `n03.cut5`) |
//! | `engine.iterations.total` | counter | iterations run (shards = per-thread iteration counts, outer-loop balance) |
//! | `engine.iterations.colorful` | counter | iterations whose root total was non-zero (colorful-hit rate) |
//! | `engine.iterations.saved` | counter | budgeted iterations an adaptive stop rule did not need to run |
//! | `engine.adaptive.estimate` | gauge | running point estimate after the latest convergence check (rounded to u64) |
//! | `engine.adaptive.ci_half_width` | gauge | running CI half-width after the latest convergence check (rounded to u64) |
//! | `engine.adaptive.checks` | counter | convergence checks performed (waves completed) |
//! | `engine.threads` | gauge | worker threads of the resolved parallel mode |
//! | `engine.degrade.layout_fallbacks` | counter | ladder steps taken below the preferred table layout under a memory budget |
//! | `engine.iterations.poisoned` | counter | iteration attempts that panicked and were isolated |
//! | `engine.iterations.retried` | counter | poisoned iterations retried with a fresh coloring seed |
//! | `engine.checkpoint.writes` | counter | checkpoint files flushed (wave barriers + final) |
//! | `cut.roots.visited` / `cut.roots.skipped` | counter | root vertices processed vs. skipped by the "initialized" check (shards = per-thread work counts) |
//! | `cut.neighbors.visited` / `cut.neighbors.skipped` | counter | passive-side neighbor reads vs. skips |
//! | `triangle.candidates` / `triangle.colorful` | counter | triangle closures found vs. those with all-distinct colors |
//! | `table.bytes.peak` | gauge | measured peak live DP bytes within one iteration |
//! | `table.bytes.built` | counter | bytes allocated across all built tables |
//! | `table.rows.materialized` / `table.rows.nonzero` | counter | rows the layout paid for vs. rows holding counts |
//! | `table.entries.live` | counter | non-zero (vertex, colorset) entries |
//! | `table.probe.inserts` / `table.probe.steps` | counter | hash-layout insert count and total probe steps |
//! | `table.probe.max` | gauge | longest hash probe chain seen |

use fascia_obs::{Counter, Gauge, Metrics};
use fascia_table::{CountTable, TableStats};
use std::sync::Arc;

/// Handles for the cut-node inner loop (Alg. 2 line 2).
pub(crate) struct CutMetrics {
    pub roots_visited: Arc<Counter>,
    pub roots_skipped: Arc<Counter>,
    pub neighbors_visited: Arc<Counter>,
    pub neighbors_skipped: Arc<Counter>,
}

/// Handles for the triangle base case.
pub(crate) struct TriangleMetrics {
    pub candidates: Arc<Counter>,
    pub colorful: Arc<Counter>,
}

/// Handles for table construction accounting.
pub(crate) struct TableMetrics {
    pub bytes_peak: Arc<Gauge>,
    pub bytes_built: Arc<Counter>,
    pub rows_materialized: Arc<Counter>,
    pub rows_nonzero: Arc<Counter>,
    pub entries_live: Arc<Counter>,
    pub probe_inserts: Arc<Counter>,
    pub probe_steps: Arc<Counter>,
    pub probe_max: Arc<Gauge>,
}

impl TableMetrics {
    /// Records one built table's measured statistics.
    pub(crate) fn record<T: CountTable>(&self, table: &T) {
        let TableStats {
            allocated_bytes,
            rows_materialized,
            nonzero_rows,
            live_entries,
            probe,
            // Access counters go to the fascia-mem/1 collector, not the
            // registry: they accumulate for the table's whole lifetime,
            // while this hook fires at construction time.
            access: _,
        } = table.stats();
        self.bytes_built.add(allocated_bytes as u64);
        self.rows_materialized.add(rows_materialized as u64);
        self.rows_nonzero.add(nonzero_rows as u64);
        self.entries_live.add(live_entries as u64);
        if let Some(p) = probe {
            self.probe_inserts.add(p.inserts);
            self.probe_steps.add(p.probes);
            self.probe_max.set_max(p.max_probe);
        }
    }
}

/// The counter and gauge handles one counting run needs, resolved up
/// front (the phase histograms live in the run's `Instruments`).
pub(crate) struct RunMetrics {
    pub iterations_total: Arc<Counter>,
    pub iterations_colorful: Arc<Counter>,
    pub iterations_saved: Arc<Counter>,
    pub adaptive_estimate: Arc<Gauge>,
    pub adaptive_ci: Arc<Gauge>,
    pub adaptive_checks: Arc<Counter>,
    pub threads: Arc<Gauge>,
    pub degrade_fallbacks: Arc<Counter>,
    pub iterations_poisoned: Arc<Counter>,
    pub iterations_retried: Arc<Counter>,
    pub checkpoint_writes: Arc<Counter>,
    pub cut: CutMetrics,
    pub triangle: TriangleMetrics,
    pub table: TableMetrics,
}

impl RunMetrics {
    /// Resolves every handle against the enabled registry `m`.
    pub(crate) fn resolve(m: &Metrics) -> Self {
        Self {
            iterations_total: m.counter("engine.iterations.total"),
            iterations_colorful: m.counter("engine.iterations.colorful"),
            iterations_saved: m.counter("engine.iterations.saved"),
            adaptive_estimate: m.gauge("engine.adaptive.estimate"),
            adaptive_ci: m.gauge("engine.adaptive.ci_half_width"),
            adaptive_checks: m.counter("engine.adaptive.checks"),
            threads: m.gauge("engine.threads"),
            degrade_fallbacks: m.counter("engine.degrade.layout_fallbacks"),
            iterations_poisoned: m.counter("engine.iterations.poisoned"),
            iterations_retried: m.counter("engine.iterations.retried"),
            checkpoint_writes: m.counter("engine.checkpoint.writes"),
            cut: CutMetrics {
                roots_visited: m.counter("cut.roots.visited"),
                roots_skipped: m.counter("cut.roots.skipped"),
                neighbors_visited: m.counter("cut.neighbors.visited"),
                neighbors_skipped: m.counter("cut.neighbors.skipped"),
            },
            triangle: TriangleMetrics {
                candidates: m.counter("triangle.candidates"),
                colorful: m.counter("triangle.colorful"),
            },
            table: TableMetrics {
                bytes_peak: m.gauge("table.bytes.peak"),
                bytes_built: m.counter("table.bytes.built"),
                rows_materialized: m.counter("table.rows.materialized"),
                rows_nonzero: m.counter("table.rows.nonzero"),
                entries_live: m.counter("table.entries.live"),
                probe_inserts: m.counter("table.probe.inserts"),
                probe_steps: m.counter("table.probe.steps"),
                probe_max: m.gauge("table.probe.max"),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sharded counters stay exact when driven from a rayon parallel
    /// iterator, and per-worker registries merge without loss.
    #[test]
    fn counter_merge_across_rayon_scope_sums_exactly() {
        use rayon::prelude::*;

        // One shared counter incremented from rayon workers.
        let shared = Metrics::new();
        let c = shared.counter("shared.work");
        let n: usize = (0..50_000usize)
            .into_par_iter()
            .map(|_| {
                c.inc();
                1usize
            })
            .sum();
        assert_eq!(n, 50_000);
        assert_eq!(c.get(), 50_000);
        assert_eq!(c.shard_values().iter().sum::<u64>(), 50_000);

        // Per-worker registries merged into a total.
        let total = Metrics::new();
        let locals: Vec<Metrics> = (0..8usize)
            .into_par_iter()
            .map(|_| {
                let local = Metrics::new();
                for _ in 0..10_000 {
                    local.counter("work").inc();
                }
                local
            })
            .collect();
        for local in &locals {
            total.merge(local);
        }
        assert_eq!(total.counter("work").get(), 80_000);
    }
}
