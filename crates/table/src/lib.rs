//! Dynamic-programming count tables (paper §III-C).
//!
//! The DP stores, for the current subtemplate, a count per (graph vertex,
//! color-set index). The paper abstracts this table and evaluates three
//! layouts, all reproduced here behind the [`CountTable`] trait:
//!
//! * [`DenseTable`] — the naive layout: a flat `n x Nc` array fully
//!   allocated up front regardless of need,
//! * [`LazyTable`] — the "improved" layout: rows materialized only for
//!   vertices with at least one non-zero count, packed into one contiguous
//!   arena in vertex order, enabling the memory saving, the O(1) "is this
//!   vertex initialized" check that skips work in the inner loops, *and*
//!   the sequential row reads the vectorized DP kernel depends on
//!   (DESIGN.md §15),
//! * [`HashCountTable`] — the hashing scheme for high-selectivity
//!   templates: key `vid * Nc + I`, hashed by plain modulo into an
//!   open-addressing table (the paper's `key mod size` with a table sized
//!   as a factor of the live entries).
//!
//! Every table is built from one [`RowBatch`]: the DP stages each vertex's
//! row and commits only rows with a non-zero entry, in ascending vertex
//! order, so every layout sees the same logical content and sums it in the
//! same order. A layout names the batch form it builds from with
//! [`CountTable::new_batch`]: the dense and lazy layouts take a contiguous
//! row arena, the hashed layout only the non-zero `(key, value)` records.
//!
//! # Choosing a layout
//!
//! For `n` graph vertices, `Nc = C(k, h)` color-set slots per vertex, `r`
//! *active* vertices (at least one non-zero count) and `e` live
//! `(vertex, color set)` entries, the memory footprints are roughly:
//!
//! * dense — `8 * n * Nc` bytes, always. Fastest access (one multiply),
//!   right when most vertices are active and `Nc` is small (small
//!   templates on dense graphs).
//! * lazy — `8 * r * Nc` plus a 4-byte arena slot per vertex:
//!   `4n + 8 * r * Nc`. The default: same O(1) row addressing as dense,
//!   but pays only for active vertices — a large win on sparse or
//!   road-like graphs where most vertices never accumulate a count. Its
//!   arena keeps active rows adjacent in vertex order, so neighbor-row
//!   sweeps read memory almost sequentially (watch
//!   `access.sequential_ratio` under `--mem-stats`, and see the PR 6
//!   occupancy recipe in EXPERIMENTS.md for picking a layout from
//!   measured occupancy).
//! * hash — `~16 * e / load` bytes (key + value per live entry at the
//!   configured load factor). Right for *high-selectivity* workloads —
//!   labeled or large templates where `e << r * Nc` — at the cost of a
//!   probe chain per lookup.
//!
//! All three agree bitwise on every count; the engine's `TableKind` config
//! knob is purely a space/time trade (see Figs. 6–7 for the measured
//! curves).
//!
//! ```
//! use fascia_table::{CountTable, DenseTable, LazyTable, RowBatch, TableKind};
//!
//! // 4 vertices, 3 color-set slots; vertices 1 and 3 never got a count,
//! // so their rows are not committed.
//! let mut batch = RowBatch::new(4, 3);
//! batch.stage().copy_from_slice(&[2.0, 0.0, 1.0]);
//! batch.commit(0);
//! batch.stage()[1] = 4.0;
//! batch.commit(2);
//!
//! let lazy = LazyTable::from_batch_kind(TableKind::Lazy, batch.clone());
//! let dense = DenseTable::from_batch_kind(TableKind::Dense, batch);
//! assert_eq!(lazy.get(0, 2), 1.0);
//! assert!(!lazy.vertex_active(1));
//! assert_eq!(lazy.total(), dense.total()); // layouts agree on content
//! // ...but lazy materialized only the 2 active rows, dense all 4.
//! assert_eq!(lazy.stats().rows_materialized, 2);
//! assert_eq!(dense.stats().rows_materialized, 4);
//! ```

#![warn(missing_docs)]

pub mod access;
pub mod any;
pub mod batch;
pub mod dense;
pub mod hashed;
pub mod lazy;

pub use access::{
    access_tracking_enabled, set_access_tracking, AccessRecorder, AccessSnapshot, ACCESS_BUCKETS,
};
pub use any::AnyTable;
pub use batch::RowBatch;
pub use dense::DenseTable;
pub use hashed::HashCountTable;
pub use lazy::LazyTable;

/// Which table layout to use (runtime-selectable in the engine config).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TableKind {
    /// Naive dense array (paper's baseline memory scheme).
    Dense,
    /// Lazily materialized per-vertex rows (paper's improved scheme).
    Lazy,
    /// Modulo-hashed sparse table (paper's high-selectivity scheme).
    Hash,
}

impl TableKind {
    /// All three layouts, in paper presentation order.
    pub fn all() -> [TableKind; 3] {
        [TableKind::Dense, TableKind::Lazy, TableKind::Hash]
    }

    /// Display name used in figure output.
    pub fn name(&self) -> &'static str {
        match self {
            TableKind::Dense => "naive",
            TableKind::Lazy => "improved",
            TableKind::Hash => "hash",
        }
    }

    /// The degradation ladder: layouts at-or-below `self` in memory
    /// footprint, densest first. Dense can fall back to lazy or hashed,
    /// lazy to hashed, hashed only to itself.
    pub fn ladder(&self) -> &'static [TableKind] {
        match self {
            TableKind::Dense => &[TableKind::Dense, TableKind::Lazy, TableKind::Hash],
            TableKind::Lazy => &[TableKind::Lazy, TableKind::Hash],
            TableKind::Hash => &[TableKind::Hash],
        }
    }
}

/// Projects the heap bytes a layout would allocate for a table of `n`
/// vertices x `nc` colorsets with `active_rows` non-zero rows holding
/// `live_entries` non-zero counts, without building it.
///
/// The formulas mirror each layout's [`CountTable::bytes`] accounting
/// exactly (dense: full `n x nc` doubles plus the activity bitmap; lazy:
/// doubles for the active-row arena plus one 4-byte slot per vertex;
/// hash: the open-addressing key/value arrays at factor-of-two occupancy
/// plus the activity bitmap), so a projection can be compared against a
/// memory budget before committing to a layout.
pub fn projected_bytes(
    kind: TableKind,
    n: usize,
    nc: usize,
    active_rows: usize,
    live_entries: usize,
) -> usize {
    match kind {
        TableKind::Dense => n * nc * 8 + n,
        TableKind::Lazy => active_rows * nc * 8 + n * std::mem::size_of::<u32>(),
        TableKind::Hash => {
            let capacity = (2 * live_entries).max(16) + 1;
            capacity * 16 + n
        }
    }
}

/// Measured storage statistics of a built table.
///
/// Unlike [`CountTable::bytes`]-based estimates aggregated by the engine,
/// these are read off the concrete layout after construction, so the
/// Figs. 6–7 memory comparisons can report what was actually allocated.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TableStats {
    /// Exact heap bytes held by the layout's allocations.
    pub allocated_bytes: usize,
    /// Vertices for which the layout materialized storage (dense: all of
    /// them — that is the point of the comparison; lazy: active rows only).
    pub rows_materialized: usize,
    /// Vertices holding at least one non-zero count.
    pub nonzero_rows: usize,
    /// Non-zero `(vertex, colorset)` pairs.
    pub live_entries: usize,
    /// Open-addressing probe statistics (hash layout only).
    pub probe: Option<ProbeStats>,
    /// Access-pattern counters accumulated since construction (present only
    /// when [`set_access_tracking`] was on when the table was built).
    pub access: Option<AccessSnapshot>,
}

/// Construction-time probe behavior of the hashed layout.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeStats {
    /// Entries inserted.
    pub inserts: u64,
    /// Total slot inspections across all inserts (1 per insert is ideal).
    pub probes: u64,
    /// Longest single probe chain.
    pub max_probe: u64,
}

impl ProbeStats {
    /// Mean slot inspections per insert (1.0 = collision-free).
    pub fn mean_probe(&self) -> f64 {
        if self.inserts == 0 {
            0.0
        } else {
            self.probes as f64 / self.inserts as f64
        }
    }
}

/// Common interface of the three table layouts.
///
/// A table is immutable once built: the DP always constructs the parent
/// table from complete child tables, so no in-place mutation is needed.
pub trait CountTable: Send + Sync + Sized {
    /// Builds a table from a [`RowBatch`], the one construction path.
    /// Concrete layouts ignore `kind` (they are their own layout);
    /// [`AnyTable`] dispatches on it — this is the hook the engine's
    /// memory-budget degradation ladder uses to pick a layout per
    /// subtemplate. No per-row boxes are allocated; for [`LazyTable`] the
    /// batch arena is *moved*, not copied.
    ///
    /// ```
    /// use fascia_table::{CountTable, DenseTable, RowBatch, TableKind};
    /// let mut batch = RowBatch::new(3, 2);
    /// batch.stage()[0] = 7.0;
    /// batch.commit(2);
    /// let t = DenseTable::from_batch_kind(TableKind::Dense, batch);
    /// assert_eq!(t.get(2, 0), 7.0);
    /// assert!(!t.vertex_active(0));
    /// ```
    fn from_batch_kind(kind: TableKind, batch: RowBatch) -> Self;

    /// An empty batch of `n` vertices × `nc` colorsets in the form this
    /// layout builds from. The default is the dense arena
    /// ([`RowBatch::new`]), which every layout accepts; the hashed layout
    /// takes the sparse form ([`RowBatch::new_sparse`]), which the dense
    /// and lazy layouts reject. [`AnyTable`] keeps the default, since its
    /// layout is chosen only after the batch is filled.
    ///
    /// ```
    /// use fascia_table::{CountTable, HashCountTable, LazyTable};
    /// assert!(!LazyTable::new_batch(3, 2).is_sparse());
    /// assert!(HashCountTable::new_batch(3, 2).is_sparse());
    /// ```
    fn new_batch(n: usize, nc: usize) -> RowBatch {
        RowBatch::new(n, nc)
    }

    /// Number of graph vertices this table covers.
    fn num_vertices(&self) -> usize;

    /// Number of color-set slots per vertex.
    fn num_colorsets(&self) -> usize;

    /// Count for vertex `v` and color-set index `cs` (0 when absent).
    fn get(&self, v: usize, cs: usize) -> f64;

    /// Whether vertex `v` holds any non-zero count — the paper's boolean
    /// check that avoids "considerable computation and additional memory
    /// accesses".
    fn vertex_active(&self, v: usize) -> bool;

    /// Contiguous row of vertex `v` when the layout materializes one
    /// (`None` for inactive vertices and for the hash layout).
    fn row_slice(&self, v: usize) -> Option<&[f64]>;

    /// Whether this layout materializes contiguous rows at all: when
    /// `true`, `row_slice(v).is_some()` is equivalent to
    /// `vertex_active(v)`, so a single [`CountTable::row_slice`] probe can
    /// serve as both the activity check and the row read. The hash layout
    /// returns `false`.
    fn has_row_slices(&self) -> bool {
        true
    }

    /// Adds vertex `v`'s whole row into `acc`, equivalent to
    /// `acc[cs] += self.get(v, cs)` for every `cs` in `0..acc.len()`.
    /// Each slot receives at most one add, so the order across slots is
    /// free. Layouts may override this (the hashed layout scans the row's
    /// home window once and skips absent keys); the result must be
    /// bitwise identical to the per-slot default for every `acc` that
    /// holds no `-0.0` — skipping a `+0.0` add changes only a `-0.0`.
    fn add_row_into(&self, v: usize, acc: &mut [f64]) {
        for (cs, a) in acc.iter_mut().enumerate() {
            *a += self.get(v, cs);
        }
    }

    /// Hints that vertex `v`'s row is about to be read (e.g. by
    /// [`CountTable::add_row_into`]): layouts may prefetch the backing
    /// storage. Semantically a no-op; the default does nothing.
    fn prefetch_row_hint(&self, v: usize) {
        let _ = v;
    }

    /// Approximate heap bytes held (peak-memory accounting, Figs. 6–7).
    fn bytes(&self) -> usize;

    /// Measured storage statistics (exact bytes, materialized rows, probe
    /// behavior). May scan the table; call once per built table, not in
    /// inner loops.
    fn stats(&self) -> TableStats;

    /// Sum over all entries (the final count aggregation, Alg. 2 line 20).
    fn total(&self) -> f64;

    /// The layout tag of this table instance (for [`AnyTable`] the layout
    /// actually chosen, which may differ per subtemplate under a budget).
    fn kind(&self) -> TableKind;
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;

    /// Deterministic sparse test rows: `None` marks a vertex without a
    /// count, and every `Some` row holds a non-zero entry.
    pub fn sample_rows(n: usize, nc: usize) -> Vec<Option<Vec<f64>>> {
        (0..n)
            .map(|v| {
                let row: Vec<f64> = (0..nc)
                    .map(|cs| match (v + cs) % 4 {
                        0 => (v * nc + cs + 1) as f64,
                        _ => 0.0,
                    })
                    .collect();
                (v % 3 != 2 && row.iter().any(|&x| x != 0.0)).then_some(row)
            })
            .collect()
    }

    /// `rows` staged and committed in vertex order.
    pub fn batch_of(nc: usize, rows: &[Option<Vec<f64>>]) -> RowBatch {
        fill(RowBatch::new(rows.len(), nc), rows)
    }

    /// `rows` staged and committed in vertex order into the empty `batch`.
    pub fn fill(mut batch: RowBatch, rows: &[Option<Vec<f64>>]) -> RowBatch {
        for (v, row) in rows.iter().enumerate() {
            if let Some(row) = row {
                batch.stage().copy_from_slice(row);
                batch.commit(v);
            }
        }
        batch
    }

    /// [`sample_rows`] as a batch.
    pub fn sample_batch(n: usize, nc: usize) -> RowBatch {
        batch_of(nc, &sample_rows(n, nc))
    }

    /// Exercises the full trait contract for a layout.
    pub fn check_contract<T: CountTable>() {
        let (n, nc) = (23, 7);
        let reference = sample_rows(n, nc);
        let table = T::from_batch_kind(TableKind::Lazy, fill(T::new_batch(n, nc), &reference));
        assert_eq!(table.num_vertices(), n);
        assert_eq!(table.num_colorsets(), nc);
        let mut expect_total = 0.0;
        for (v, expect_row) in reference.iter().enumerate() {
            match expect_row {
                None => {
                    assert!(!table.vertex_active(v), "vertex {v} should be inactive");
                    for cs in 0..nc {
                        assert_eq!(table.get(v, cs), 0.0);
                    }
                }
                Some(row) => {
                    assert!(table.vertex_active(v), "vertex {v} should be active");
                    for (cs, &x) in row.iter().enumerate() {
                        assert_eq!(table.get(v, cs), x, "v={v} cs={cs}");
                        expect_total += x;
                    }
                    if let Some(slice) = table.row_slice(v) {
                        assert_eq!(slice, &row[..]);
                    }
                }
            }
        }
        assert!((table.total() - expect_total).abs() < 1e-9);
        assert!(table.bytes() > 0);
        let stats = table.stats();
        assert_eq!(stats.allocated_bytes, table.bytes());
        let expect_active = reference.iter().filter(|r| r.is_some()).count();
        let expect_live: usize = reference
            .iter()
            .flatten()
            .map(|row| row.iter().filter(|&&x| x != 0.0).count())
            .sum();
        assert_eq!(stats.nonzero_rows, expect_active);
        assert_eq!(stats.live_entries, expect_live);
        assert!(stats.rows_materialized >= stats.nonzero_rows);
        if let Some(p) = stats.probe {
            assert_eq!(p.inserts, expect_live as u64);
            assert!(p.probes >= p.inserts);
            assert!(p.max_probe >= 1 || p.inserts == 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names() {
        assert_eq!(TableKind::Dense.name(), "naive");
        assert_eq!(TableKind::Lazy.name(), "improved");
        assert_eq!(TableKind::Hash.name(), "hash");
        assert_eq!(TableKind::all().len(), 3);
    }
}
