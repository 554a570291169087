//! A hashed-layout count holds memory in proportion to its tables, not to
//! `n · Nc`: the rows the DP stages for the hashed layout are kept as
//! sparse `(key, count)` records, so no dense staging arena of every
//! active vertex's full row is ever allocated.
//!
//! This binary installs the counting allocator, so every heap operation
//! in the process is measured. One test function on purpose: the
//! allocator counters are process-global, and concurrently running test
//! functions would race on them.

use fascia_core::engine::{count_template, CountConfig};
use fascia_core::parallel::{with_threads, ParallelMode};
use fascia_graph::gen::road_grid;
use fascia_obs::alloc::{self, CountingAlloc};
use fascia_table::TableKind;
use fascia_template::Template;

#[global_allocator]
static GLOBAL_ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn hash_live_peak_tracks_table_bytes() {
    // The Fig. 7 regime: a long path on a low-degree road mesh, where a
    // few percent of the (vertex, color set) slots of the widest
    // subtemplate are non-zero.
    let (rows, cols) = (40, 40);
    let n = rows * cols;
    let g = road_grid(rows, cols, 2_100, 3);
    let t = Template::path(12);
    for mode in [ParallelMode::Serial, ParallelMode::InnerLoop] {
        let cfg = CountConfig {
            iterations: 1,
            table: TableKind::Hash,
            parallel: mode,
            seed: 11,
            ..CountConfig::default()
        };
        alloc::reset();
        alloc::set_enabled(true);
        let r = with_threads(2, || count_template(&g, &t, &cfg)).unwrap();
        let live_peak = alloc::snapshot().live_peak_bytes;
        alloc::set_enabled(false);
        let tables = r.peak_table_bytes as u64;
        // A node's staged records cost 16 bytes per non-zero entry; the
        // table built from them holds 16 bytes per slot at half load, so
        // the records are at most half that table, and at most the whole
        // of it with vector growth slack. The inner loop also holds the
        // band records while it merges them (at most 1.5 tables in all).
        // With the live tables `peak_table_bytes` counts, three times
        // the table peak covers it. The slack is O(n): per-vertex slots
        // and activity bitmaps, the coloring, kernel scratch and the DP
        // context, well below the 8 · Nc = 7.4 KB per active vertex a
        // dense staging row of the widest subtemplate costs.
        let slack = 256 * n as u64;
        assert!(
            live_peak <= 3 * tables + slack,
            "{mode:?}: live peak {live_peak} bytes for {tables} bytes of tables \
             (bound {})",
            3 * tables + slack
        );
    }
}
