//! fascia-mem/1 coverage from the outside: the instrumentation must be
//! observe-only (bitwise-identical estimates whether memory observability
//! is absent, attached, or fully enabled), and the document shape is
//! pinned by a golden file (`BLESS=1 cargo test -p fascia-core --test
//! mem_observability` rewrites it).
//!
//! The access-tracking flag is process-global, so everything that toggles
//! it lives in one test function; the golden test never counts anything.

use std::sync::Arc;

use fascia_core::resilience::Json;
use fascia_core::{count_template, CountConfig, MemCollector, ParallelMode};
use fascia_graph::gen::gnm;
use fascia_obs::alloc::{MemPhaseSnapshot, MemSnapshot};
use fascia_table::{AnyTable, CountTable as _, RowBatch, TableKind};
use fascia_template::Template;

fn cfg(iterations: usize) -> CountConfig {
    CountConfig {
        iterations,
        parallel: ParallelMode::Serial,
        seed: 1234,
        ..CountConfig::default()
    }
}

/// Memory observability off, attached, and fully enabled must all produce
/// the same per-iteration series bit for bit — the same contract the
/// metrics registry honors — and the enabled run must fill the collector
/// with per-node table statistics.
#[test]
fn mem_instrumentation_does_not_change_counts() {
    let g = gnm(45, 150, 83);
    let t = Template::path(5);
    let absent = cfg(6);
    let collector = Arc::new(MemCollector::new());
    let attached = CountConfig {
        mem: Some(Arc::clone(&collector)),
        ..cfg(6)
    };
    let a = count_template(&g, &t, &absent).unwrap();
    let b = count_template(&g, &t, &attached).unwrap();
    // Third run with the table access recorders live, like `--mem-stats`.
    let enabled_collector = Arc::new(MemCollector::new());
    let enabled = CountConfig {
        mem: Some(Arc::clone(&enabled_collector)),
        ..cfg(6)
    };
    fascia_table::set_access_tracking(true);
    let c = count_template(&g, &t, &enabled);
    fascia_table::set_access_tracking(false);
    let c = c.unwrap();
    assert_eq!(a.per_iteration, b.per_iteration, "collector attached");
    assert_eq!(a.per_iteration, c.per_iteration, "access tracking enabled");
    assert_eq!(a.estimate, c.estimate);

    // Both instrumented runs saw every DP node of the partition tree.
    for nodes in [collector.nodes(), enabled_collector.nodes()] {
        assert!(!nodes.is_empty(), "collector populated");
        for (name, stats) in &nodes {
            assert!(name.starts_with("dp.n"), "phase-taxonomy key: {name}");
            assert_eq!(stats.builds, 6, "one build per iteration: {name}");
            assert!(stats.bytes_peak > 0 && stats.bytes_total >= stats.bytes_peak);
            if let Some(occ) = stats.occupancy() {
                assert!((0.0..=1.0).contains(&occ), "{name}: occupancy {occ}");
            }
        }
    }
    // Only the enabled run carries access-pattern counters.
    assert!(collector.nodes().values().all(|s| s.access.is_none()));
    let with_access = enabled_collector
        .nodes()
        .values()
        .filter(|s| s.access.is_some())
        .count();
    assert!(with_access > 0, "access snapshots recorded when tracking");
}

/// The rendered fascia-mem/1 document is pinned byte for byte, and parses
/// back through the same depth-capped reader that guards checkpoint
/// resume. Built from fixed inputs only, so the golden is deterministic.
#[test]
fn mem_document_golden_round_trip() {
    let (n, nc) = (12, 4);
    let mut batch = RowBatch::new(n, nc);
    for v in (0..n).step_by(3) {
        batch.stage().fill(v as f64 + 0.5);
        batch.commit(v);
    }
    let table = AnyTable::from_batch_kind(TableKind::Hash, batch);
    let collector = MemCollector::new();
    collector.record("dp.n00.vertex1", &table);
    collector.record("dp.n02.cut3", &table);
    collector.record("dp.n02.cut3", &table);
    let allocator = MemSnapshot {
        enabled: true,
        phases: vec![
            MemPhaseSnapshot {
                name: "(unattributed)".to_string(),
                allocated_bytes: 1_000,
                freed_bytes: 600,
                allocs: 10,
                frees: 6,
                live_peak_bytes: 700,
            },
            MemPhaseSnapshot {
                name: "dp.n02.cut3".to_string(),
                allocated_bytes: 9_000,
                freed_bytes: 9_000,
                allocs: 42,
                frees: 42,
                live_peak_bytes: 4_096,
            },
        ],
        total_allocated_bytes: 10_000,
        total_freed_bytes: 9_600,
        total_allocs: 52,
        total_frees: 48,
        live_peak_bytes: 4_796,
    };
    let doc = collector.to_json(Some(&allocator));

    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/mem.json");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(golden_path, &doc).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(golden_path)
        .expect("golden missing; run once with BLESS=1 to create it");
    assert_eq!(doc, golden, "fascia-mem/1 serialization drifted");

    // Round trip: the document survives the depth-capped parser and the
    // numbers come back exactly.
    let parsed = Json::parse(&doc).unwrap();
    let obj = parsed.as_obj().unwrap();
    assert_eq!(
        Json::get(obj, "schema").and_then(Json::as_str),
        Some("fascia-mem/1")
    );
    let alloc = Json::get(obj, "allocator").and_then(Json::as_obj).unwrap();
    assert_eq!(
        Json::get(alloc, "total_allocated_bytes").and_then(Json::as_u64),
        Some(10_000)
    );
    let frac = Json::get(alloc, "attributed_fraction")
        .and_then(Json::as_f64)
        .unwrap();
    assert!(
        (frac - 0.9).abs() < 1e-12,
        "9000 of 10000 attributed: {frac}"
    );
    let tables = Json::get(obj, "tables").and_then(Json::as_obj).unwrap();
    let cut = Json::get(tables, "dp.n02.cut3")
        .and_then(Json::as_obj)
        .unwrap();
    assert_eq!(Json::get(cut, "builds").and_then(Json::as_u64), Some(2));
    assert_eq!(
        Json::get(cut, "kind").and_then(Json::as_str),
        Some("hash"),
        "layout name survives"
    );
    assert!(
        Json::get(cut, "probe").is_some(),
        "hash probe stats present"
    );
}
