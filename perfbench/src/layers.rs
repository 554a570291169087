//! Per-layer metrics: the catalog (what each metric should move, and on
//! which workload), probes that time single layer calls, and the view of
//! the engine's own `fascia_obs::Metrics` registry.

use crate::spans::Recorder;
use crate::stats::median;
use crate::Metric;
use fascia_combin::{BinomialTable, PositionSplitTable, SplitTable, MAX_COLORS};
use fascia_core::coloring::random_coloring;
use fascia_core::resilience::Json;
use fascia_graph::Graph;
use fascia_template::partition::NodeKind;
use fascia_template::{PartitionStrategy, PartitionTree, Template};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

/// One per-layer metric: name, unit, and the end-to-end metric and
/// workload it should move.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub moves: &'static str,
    pub on: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    moves: &'static str,
    on: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        moves,
        on,
    }
}

/// Every per-layer metric, in report order (the same list as
/// `per_layer` in `BENCHMARK.json`).
pub const CATALOG: [Layer; 30] = [
    layer("graph.build_s", "s", "setup_s", "all"),
    layer("graph.csr_mb", "MB", "peak_rss_mb", "gdd-slashdot"),
    layer("partition.build_us", "us", "job_p50_ms", "svc-stream"),
    layer("combin.split_build_ms", "ms", "job_p50_ms", "svc-stream"),
    layer(
        "combin.split_mb",
        "MB",
        "peak_rss_mb",
        "portland-u12, road-u12-hash",
    ),
    layer("coloring.ms_per_iter", "ms", "iters_per_s", "gdd-slashdot"),
    layer(
        "dp.s_per_iter",
        "s",
        "iters_per_s",
        "portland-u12, road-u12-hash",
    ),
    layer(
        "dp.top_node_share",
        "ratio",
        "iters_per_s",
        "portland-u12, road-u12-hash",
    ),
    layer(
        "cut.neighbors_per_iter",
        "neighbors/iter",
        "iters_per_s",
        "portland-u12",
    ),
    layer(
        "cut.neighbor_skip_frac",
        "ratio",
        "iters_per_s",
        "portland-u12",
    ),
    layer(
        "table.nonzero_row_frac",
        "ratio",
        "peak_table_mb",
        "portland-u12",
    ),
    layer(
        "table.built_mb_per_iter",
        "MB/iter",
        "peak_rss_mb",
        "portland-u12",
    ),
    layer(
        "hash.probe_steps_per_insert",
        "steps/insert",
        "iters_per_s",
        "road-u12-hash",
    ),
    layer("hash.probe_max", "steps", "iters_per_s", "road-u12-hash"),
    layer(
        "mem.minor_faults_per_iter",
        "faults/iter",
        "iters_per_s",
        "portland-u12",
    ),
    layer("cpu.sys_frac", "ratio", "iters_per_s", "portland-u12"),
    layer(
        "parallel.cpu_util",
        "ratio",
        "iters_per_s",
        "road-u12-hash, gdd-slashdot",
    ),
    layer(
        "parallel.shard_imbalance",
        "ratio",
        "iters_per_s",
        "road-u12-hash, gdd-slashdot",
    ),
    layer("spool.submit_ms", "ms", "job_p50_ms", "svc-stream"),
    layer("svc.queue_wait_p50_ms", "ms", "job_p50_ms", "svc-stream"),
    layer("svc.queue_wait_p95_ms", "ms", "job_p95_ms", "svc-stream"),
    layer("svc.dispatch_ms", "ms", "job_p50_ms", "svc-stream"),
    layer("svc.attempt_ms", "ms", "job_p50_ms", "svc-stream"),
    layer("svc.durable_ms", "ms", "job_p50_ms", "svc-stream"),
    layer("svc.count_ms", "ms", "job_p50_ms", "svc-stream"),
    layer(
        "svc.attempts_per_job",
        "attempts/job",
        "job_p95_ms",
        "svc-stream",
    ),
    layer("pool.miss_ms", "ms", "job_p95_ms", "svc-stream"),
    layer("pool.hit_frac", "ratio", "job_p95_ms", "svc-stream"),
    layer("gen.late_p95_ms", "ms", "validity", "svc-stream"),
    layer("trace.overhead_frac", "ratio", "validity", "all"),
];

/// The end-to-end metric and workload a per-layer metric should move.
pub fn target(name: &str) -> Option<(&'static str, &'static str)> {
    CATALOG
        .iter()
        .find(|l| l.name == name)
        .map(|l| (l.moves, l.on))
}

/// Collects per-layer values and emits them in catalog order; a metric
/// the workload did not produce is reported as 0 with the reason.
#[derive(Default)]
pub struct Layers {
    values: Vec<Metric>,
}

impl Layers {
    /// Sets `name` (which must be in the catalog) to `value`.
    pub fn set(&mut self, name: &'static str, value: f64, n: usize, note: impl Into<String>) {
        let unit = CATALOG
            .iter()
            .find(|l| l.name == name)
            .unwrap_or_else(|| panic!("{name} is not in the per-layer catalog"))
            .unit;
        self.values.retain(|m| m.name != name);
        self.values.push(Metric::new(name, value, unit, n, note));
    }

    /// Catalog-ordered metrics; `unavailable(name)` explains each gap.
    pub fn finish(mut self, unavailable: impl Fn(&str) -> String) -> Vec<Metric> {
        CATALOG
            .iter()
            .map(
                |l| match self.values.iter().position(|m| m.name == l.name) {
                    Some(i) => self.values.swap_remove(i),
                    None => Metric::new(
                        l.name,
                        0.0,
                        l.unit,
                        0,
                        format!("n/a: {}", unavailable(l.name)),
                    ),
                },
            )
            .collect()
    }
}

/// Bytes of `g`'s CSR arrays as the engine reads them: (n+1) 8-byte
/// offsets and 2m 4-byte neighbor ids.
pub fn csr_bytes(g: &Graph) -> usize {
    (g.num_vertices() + 1) * 8 + 2 * g.num_edges() * 4
}

/// Median wall time in seconds of `reps` calls of `f`.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times).unwrap_or(0.0)
}

/// Partition tree of `t`, rooted at `orbit` when given.
pub fn partition(t: &Template, orbit: Option<u8>) -> PartitionTree {
    let s = PartitionStrategy::OneAtATime;
    match orbit {
        Some(o) => PartitionTree::build_with_root(t, o, s),
        None => PartitionTree::build(t, s),
    }
    .expect("the benchmark's templates are trees and partition")
}

/// Builds the combinatorial index tables the DP needs for `pt` with `k`
/// colors; returns their bytes.
fn build_splits(pt: &PartitionTree, k: usize) -> usize {
    let binom = BinomialTable::new(MAX_COLORS.max(k));
    let mut seen = BTreeSet::new();
    let mut bytes = 0;
    for &idx in pt.unique_order() {
        let node = &pt.nodes()[idx as usize];
        if let NodeKind::Cut { active, .. } = node.kind {
            let a = pt.nodes()[active as usize].size;
            // Single-vertex active children use removal tables instead.
            if a > 1 && seen.insert((node.size, a)) {
                let split = SplitTable::new(k, node.size as usize, a as usize, &binom);
                let pos = PositionSplitTable::new(&split);
                bytes += split.bytes() + pos.bytes();
                black_box(&pos);
            }
        }
    }
    bytes
}

/// Times the layers a counting run passes through before its DP: template
/// partitioning, combinatorial index tables and one random coloring of
/// `n` vertices. Returns (partition µs, split-table ms, split MB, coloring
/// ms), each a median over repeated calls.
pub fn probe_static(
    t: &Template,
    orbit: Option<u8>,
    n: usize,
    k: usize,
    seed: u64,
    rec: &mut Recorder,
    parent: Option<usize>,
) -> (f64, f64, f64, f64) {
    let ((part_s, pt), _) = rec.time("partition.build", parent, 0, || {
        (
            median_secs(9, || drop(black_box(partition(t, orbit)))),
            partition(t, orbit),
        )
    });
    let ((split_s, bytes), _) = rec.time("combin.split_build", parent, 0, || {
        (
            median_secs(3, || {
                black_box(build_splits(&pt, k));
            }),
            build_splits(&pt, k),
        )
    });
    let (color_s, _) = rec.time("coloring", parent, 0, || {
        let mut i = 0;
        median_secs(5, || {
            i += 1;
            black_box(random_coloring(n, k, seed ^ i));
        })
    });
    (
        part_s * 1e6,
        split_s * 1e3,
        bytes as f64 / 1e6,
        color_s * 1e3,
    )
}

/// Read-only view of a `fascia-obs/1` registry document.
pub struct Registry {
    doc: Vec<(String, Json)>,
}

impl Registry {
    /// Parses `fascia_obs::Metrics::to_json` output.
    pub fn parse(json: &str) -> Option<Self> {
        match Json::parse(json).ok()? {
            Json::Obj(doc) => Some(Self { doc }),
            _ => None,
        }
    }

    fn section(&self, key: &str) -> &[(String, Json)] {
        Json::get(&self.doc, key)
            .and_then(Json::as_obj)
            .unwrap_or(&[])
    }

    /// A counter's total (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        Json::get(self.section("counters"), name)
            .and_then(Json::as_obj)
            .and_then(|c| Json::get(c, "total"))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    }

    /// A counter's per-thread shards, zero shards dropped.
    pub fn shards(&self, name: &str) -> Vec<u64> {
        Json::get(self.section("counters"), name)
            .and_then(Json::as_obj)
            .and_then(|c| Json::get(c, "per_thread"))
            .and_then(Json::as_arr)
            .map(|a| {
                a.iter()
                    .filter_map(Json::as_u64)
                    .filter(|&v| v > 0)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// A gauge's value (0 when absent).
    pub fn gauge(&self, name: &str) -> u64 {
        Json::get(self.section("gauges"), name)
            .and_then(Json::as_u64)
            .unwrap_or(0)
    }

    /// `(name, sum)` of every histogram whose name starts with `prefix`.
    pub fn hist_sums(&self, prefix: &str) -> Vec<(String, u64)> {
        self.section("histograms")
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .filter_map(|(k, v)| {
                let sum = v
                    .as_obj()
                    .and_then(|h| Json::get(h, "sum"))
                    .and_then(Json::as_u64)?;
                Some((k.clone(), sum))
            })
            .collect()
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Engine-internal splits from the registry the traced calls filled:
/// DP time per iteration and its busiest node, cut-node neighbor work,
/// table occupancy and bytes, hash probing, and the per-thread balance of
/// `shard_counter`.
pub fn engine_layers(reg: &Registry, shard_counter: &str, out: &mut Layers) {
    let iters = reg.counter("engine.iterations.total");
    let n = iters as usize;
    let it = iters as f64;
    let dp = reg.hist_sums("engine.dp_ns.");
    let total_ns: u64 = dp.iter().map(|d| d.1).sum();
    out.set(
        "dp.s_per_iter",
        ratio(total_ns as f64 / 1e9, it),
        n,
        "sum of engine.dp_ns.* per iteration",
    );
    if let Some((name, top)) = dp.iter().max_by_key(|d| d.1) {
        let node = name.trim_start_matches("engine.dp_ns.");
        out.set(
            "dp.top_node_share",
            ratio(*top as f64, total_ns as f64),
            n,
            format!("busiest node {node}"),
        );
    }
    let visited = reg.counter("cut.neighbors.visited") as f64;
    let skipped = reg.counter("cut.neighbors.skipped") as f64;
    out.set(
        "cut.neighbors_per_iter",
        ratio(visited, it),
        n,
        "cut.neighbors.visited",
    );
    out.set(
        "cut.neighbor_skip_frac",
        ratio(skipped, visited + skipped),
        n,
        "skipped / (visited + skipped)",
    );
    let nonzero = reg.counter("table.rows.nonzero") as f64;
    let rows = reg.counter("table.rows.materialized") as f64;
    out.set(
        "table.nonzero_row_frac",
        ratio(nonzero, rows),
        n,
        "table.rows.nonzero / materialized",
    );
    let built = reg.counter("table.bytes.built") as f64 / 1e6;
    out.set(
        "table.built_mb_per_iter",
        ratio(built, it),
        n,
        "table.bytes.built per iteration",
    );
    let inserts = reg.counter("table.probe.inserts");
    if inserts > 0 {
        let steps = reg.counter("table.probe.steps") as f64;
        out.set(
            "hash.probe_steps_per_insert",
            steps / inserts as f64,
            inserts as usize,
            "table.probe.steps / inserts",
        );
        out.set(
            "hash.probe_max",
            reg.gauge("table.probe.max") as f64,
            inserts as usize,
            "longest probe chain",
        );
    }
    let shards = reg.shards(shard_counter);
    if !shards.is_empty() {
        let max = *shards.iter().max().unwrap_or(&0) as f64;
        let mean = shards.iter().sum::<u64>() as f64 / shards.len() as f64;
        out.set(
            "parallel.shard_imbalance",
            ratio(max, mean),
            shards.len(),
            format!(
                "max/mean of {} per-thread shards of {shard_counter}",
                shards.len()
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique_and_valid() {
        let mut names = BTreeSet::new();
        for l in &CATALOG {
            assert!(names.insert(l.name), "duplicate {}", l.name);
            assert!(l.name.len() <= 64 && l.unit.len() <= 16);
        }
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let listed: Vec<(String, String)> = Json::get(doc.as_obj().unwrap(), "per_layer")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let m = m.as_obj().unwrap();
                let s = |k| Json::get(m, k).and_then(Json::as_str).unwrap().to_string();
                (s("name"), s("unit"))
            })
            .collect();
        let catalog: Vec<(String, String)> = CATALOG
            .iter()
            .map(|l| (l.name.to_string(), l.unit.to_string()))
            .collect();
        assert_eq!(listed, catalog);
    }

    #[test]
    fn gaps_are_reported_with_their_reason() {
        let mut l = Layers::default();
        l.set("graph.csr_mb", 2.5, 1, "computed");
        let out = l.finish(|name| format!("no {name} here"));
        assert_eq!(out.len(), CATALOG.len());
        assert_eq!(out[1].value, 2.5);
        assert_eq!(out[0].note, "n/a: no graph.build_s here");
    }

    #[test]
    fn registry_view_reads_the_engine_document() {
        let m = fascia_obs::Metrics::new();
        m.counter("engine.iterations.total").add(4);
        m.counter("cut.neighbors.visited").add(30);
        m.counter("cut.neighbors.skipped").add(10);
        m.histogram("engine.dp_ns.n00.cut3").record(300);
        m.histogram("engine.dp_ns.n01.vertex1").record(100);
        let reg = Registry::parse(&m.to_json()).unwrap();
        let mut l = Layers::default();
        engine_layers(&reg, "engine.iterations.total", &mut l);
        let out = l.finish(|_| String::new());
        let get = |name: &str| out.iter().find(|m| m.name == name).unwrap();
        assert_eq!(get("cut.neighbors_per_iter").value, 7.5);
        assert_eq!(get("cut.neighbor_skip_frac").value, 0.25);
        assert_eq!(get("dp.top_node_share").value, 0.75);
        assert!(get("dp.top_node_share").note.contains("n00.cut3"));
        assert_eq!(get("parallel.shard_imbalance").value, 1.0);
        assert_eq!(
            get("hash.probe_max").n,
            0,
            "no inserts, so no probe metrics"
        );
    }
}
