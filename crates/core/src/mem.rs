//! Memory & access-pattern observability: the `fascia-mem/1` document.
//!
//! This is the memory sink next to metrics (how much), the tracer (when),
//! and the profiler (where time goes): *where memory goes and how it is
//! touched*. A [`MemCollector`] is attached to a run via
//! `CountConfig::mem`; the engine then
//!
//! 1. enters one allocator attribution phase per partition node (plus
//!    `iteration` / `coloring`) through [`fascia_obs::alloc`], so a binary
//!    that installed [`fascia_obs::CountingAlloc`] attributes its
//!    allocation volume to the same `dp.n<idx>.<kind><size>` taxonomy the
//!    tracer and profiler publish (the engine's `Instruments` phase table
//!    decides which phases), and
//! 2. records every DP table into the collector at *release* time — after
//!    the parent consumed it — so the [`fascia_table::AccessSnapshot`]
//!    counters reflect the table's whole life, not its birth.
//!
//! Rendering [`MemCollector::to_json`] produces the stable, additive-only
//! `fascia-mem/1` document:
//!
//! ```json
//! {
//!   "schema": "fascia-mem/1",
//!   "allocator": { "enabled": bool, "total_allocated_bytes": u64, ...,
//!                   "phases": { "<phase>": { "allocated_bytes": u64, ... } } },
//!   "tables": { "<node>": {
//!       "kind": "naive|improved|hash", "builds": u64, "bytes_peak": u64,
//!       "bytes_total": u64, "rows": u64, "rows_materialized": u64,
//!       "nonzero_rows": u64, "live_entries": u64, "total_slots": u64,
//!       "occupancy": f64,
//!       "probe":  { "inserts": u64, "probes": u64, "max_probe": u64 },   // hash only
//!       "access": { "gets": u64, ..., "touch_hist": [u64,...], ... }     // tracking only
//!   } }
//! }
//! ```
//!
//! Like every observability rail here, the collector only observes:
//! counting results are bitwise identical with it absent, attached, or
//! attached with the allocator and access tracking enabled.

use fascia_obs::json::{array_of, ObjectWriter};
use fascia_obs::MemSnapshot;
use fascia_table::{AccessSnapshot, CountTable, TableStats, ACCESS_BUCKETS};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Aggregated storage/access statistics of every table built for one
/// partition node across all iterations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeMemStats {
    /// Layout name (`naive` / `improved` / `hash`) of the last build —
    /// under a budget gate the layout can differ between iterations.
    pub kind: String,
    /// Tables built (and released) for this node.
    pub builds: u64,
    /// Largest single-table footprint seen, bytes.
    pub bytes_peak: u64,
    /// Sum of footprints across builds, bytes.
    pub bytes_total: u64,
    /// Graph vertices per table (`n`).
    pub rows: u64,
    /// Vertex rows the layout paid for, summed across builds.
    pub rows_materialized: u64,
    /// Vertex rows holding at least one non-zero count, summed across
    /// builds.
    pub nonzero_rows: u64,
    /// Non-zero `(vertex, colorset)` entries, summed across builds.
    pub live_entries: u64,
    /// Logical `n * nc` slots, summed across builds (occupancy denominator).
    pub total_slots: u64,
    /// Hash construction probe stats, summed (hash layout only).
    pub probe: Option<fascia_table::ProbeStats>,
    /// Lifetime access counters, summed (present when tracking was on).
    pub access: Option<AccessSnapshot>,
}

impl NodeMemStats {
    /// Live entries over logical slots: the density that picks a layout
    /// (`None` before any build).
    pub fn occupancy(&self) -> Option<f64> {
        if self.total_slots == 0 {
            None
        } else {
            Some(self.live_entries as f64 / self.total_slots as f64)
        }
    }

    fn fold(&mut self, kind: &str, n: usize, nc: usize, bytes: usize, stats: &TableStats) {
        self.kind = kind.to_string();
        self.builds += 1;
        self.bytes_peak = self.bytes_peak.max(bytes as u64);
        self.bytes_total += bytes as u64;
        self.rows = n as u64;
        self.rows_materialized += stats.rows_materialized as u64;
        self.nonzero_rows += stats.nonzero_rows as u64;
        self.live_entries += stats.live_entries as u64;
        self.total_slots += (n * nc) as u64;
        if let Some(p) = stats.probe {
            let agg = self.probe.get_or_insert_with(Default::default);
            agg.inserts += p.inserts;
            agg.probes += p.probes;
            agg.max_probe = agg.max_probe.max(p.max_probe);
        }
        if let Some(a) = stats.access {
            let agg = self.access.get_or_insert_with(Default::default);
            agg.gets += a.gets;
            agg.inactive_skips += a.inactive_skips;
            agg.row_reads += a.row_reads;
            agg.sequential += a.sequential;
            agg.scattered += a.scattered;
            agg.touched_rows += a.touched_rows;
            for i in 0..ACCESS_BUCKETS {
                agg.touch_hist[i] += a.touch_hist[i];
                agg.probe_hist[i] += a.probe_hist[i];
            }
        }
    }
}

/// Thread-safe per-node aggregation of table memory/access statistics.
///
/// Cheap to share via `Arc`; the engine records once per table *release*
/// (a short mutex outside the hot loops), so attaching a collector does
/// not perturb the DP itself.
#[derive(Debug, Default)]
pub struct MemCollector {
    nodes: Mutex<BTreeMap<String, NodeMemStats>>,
}

impl MemCollector {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one released table into the node keyed `name`
    /// (`dp.n<idx>.<kind><size>`).
    pub fn record<T: CountTable>(&self, name: &str, table: &T) {
        let stats = table.stats();
        let mut nodes = self.nodes.lock().unwrap_or_else(|e| e.into_inner());
        nodes.entry(name.to_string()).or_default().fold(
            table.kind().name(),
            table.num_vertices(),
            table.num_colorsets(),
            table.bytes(),
            &stats,
        );
    }

    /// Snapshot of the per-node aggregates (sorted by node name).
    pub fn nodes(&self) -> BTreeMap<String, NodeMemStats> {
        self.nodes.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Renders the `fascia-mem/1` document. `allocator` supplies the
    /// process-wide allocation counters (pass the result of
    /// [`fascia_obs::alloc::snapshot`] when the counting allocator is
    /// installed; `None` renders a disabled allocator section so the
    /// document shape is invariant).
    pub fn to_json(&self, allocator: Option<&MemSnapshot>) -> String {
        let disabled = MemSnapshot::default();
        let alloc_json = allocator.unwrap_or(&disabled).to_json();
        let mut tables = ObjectWriter::new();
        for (name, s) in self.nodes().iter() {
            let mut o = ObjectWriter::new();
            o.field_str("kind", &s.kind)
                .field_u64("builds", s.builds)
                .field_u64("bytes_peak", s.bytes_peak)
                .field_u64("bytes_total", s.bytes_total)
                .field_u64("rows", s.rows)
                .field_u64("rows_materialized", s.rows_materialized)
                .field_u64("nonzero_rows", s.nonzero_rows)
                .field_u64("live_entries", s.live_entries)
                .field_u64("total_slots", s.total_slots)
                .field_f64("occupancy", s.occupancy().unwrap_or(0.0));
            if let Some(p) = s.probe {
                let mut po = ObjectWriter::new();
                po.field_u64("inserts", p.inserts)
                    .field_u64("probes", p.probes)
                    .field_u64("max_probe", p.max_probe);
                o.field_raw("probe", &po.finish());
            }
            if let Some(a) = s.access {
                let mut ao = ObjectWriter::new();
                ao.field_u64("gets", a.gets)
                    .field_u64("inactive_skips", a.inactive_skips)
                    .field_u64("row_reads", a.row_reads)
                    .field_u64("sequential", a.sequential)
                    .field_u64("scattered", a.scattered)
                    .field_u64("touched_rows", a.touched_rows)
                    .field_raw(
                        "touch_hist",
                        &array_of(a.touch_hist.iter().map(u64::to_string)),
                    )
                    .field_raw(
                        "probe_hist",
                        &array_of(a.probe_hist.iter().map(u64::to_string)),
                    );
                o.field_raw("access", &ao.finish());
            }
            tables.field_raw(name, &o.finish());
        }
        let mut root = ObjectWriter::new();
        root.field_str("schema", "fascia-mem/1")
            .field_raw("allocator", &alloc_json)
            .field_raw("tables", &tables.finish());
        root.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fascia_table::{AnyTable, RowBatch, TableKind};

    fn sample_table(kind: TableKind) -> AnyTable {
        let (n, nc) = (12, 4);
        let mut batch = RowBatch::new(n, nc);
        // Vertex 0's row would be all zero, so it is not committed.
        for v in (2..n).step_by(2) {
            batch.stage().fill(v as f64);
            batch.commit(v);
        }
        AnyTable::from_batch_kind(kind, batch)
    }

    #[test]
    fn collector_aggregates_across_builds() {
        let c = MemCollector::new();
        c.record("dp.n00.vertex1", &sample_table(TableKind::Lazy));
        c.record("dp.n00.vertex1", &sample_table(TableKind::Lazy));
        c.record("dp.n02.cut3", &sample_table(TableKind::Hash));
        let nodes = c.nodes();
        assert_eq!(nodes.len(), 2);
        let v = &nodes["dp.n00.vertex1"];
        assert_eq!(v.builds, 2);
        assert_eq!(v.kind, "improved");
        assert_eq!(v.rows, 12);
        assert_eq!(v.total_slots, 2 * 12 * 4);
        assert!(v.occupancy().unwrap() > 0.0);
        assert!(v.bytes_peak > 0 && v.bytes_total >= v.bytes_peak);
        let h = &nodes["dp.n02.cut3"];
        assert_eq!(h.kind, "hash");
        assert!(h.probe.is_some(), "hash layout reports probe stats");
    }

    #[test]
    fn json_document_has_the_stable_shape() {
        let c = MemCollector::new();
        c.record("dp.n00.vertex1", &sample_table(TableKind::Dense));
        let j = c.to_json(None);
        assert!(j.starts_with("{\"schema\":\"fascia-mem/1\""));
        assert!(j.contains("\"allocator\":{\"enabled\":false"));
        assert!(j.contains("\"tables\":{\"dp.n00.vertex1\":{\"kind\":\"naive\""));
        assert!(j.contains("\"occupancy\":"));
        // Dense layout: no probe section (additive, omitted when absent).
        assert!(!j.contains("\"probe\":{"));
    }
}
