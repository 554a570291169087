//! The improved lazily-materialized table, stored as a row arena.
//!
//! "We only initialize storage for a given vertex v if that vertex has a
//! value stored in it for any color set" (§III-C). Inactive vertices cost
//! one 4-byte slot; the activity check is a sentinel test. On the Portland
//! network with unlabeled templates the paper reports ~20% peak-memory
//! savings, and >90% with labels, purely from this row laziness.
//!
//! # Layout
//!
//! Earlier versions stored `Vec<Option<Box<[f64]>>>` — one heap
//! allocation per active row, scattered wherever the allocator put them.
//! The vectorized DP kernel (DESIGN.md §15) reads child rows in bulk, so
//! the layout is now a single arena:
//!
//! ```text
//! data:  [ row of v3 | row of v7 | row of v9 | ... ]   (nc doubles each,
//! slots: [ ⊥ ⊥ ⊥ 0 ⊥ ⊥ ⊥ 1 ⊥ 2 ... ]                  ascending vertex order)
//! ```
//!
//! `slots[v]` is the arena row index of vertex `v` (or a sentinel when
//! inactive), so `row_slice` is one bounds-checked slice view and
//! consecutive active rows are physically adjacent — the property the
//! colorset-major kernel's sequential sweeps rely on. A [`RowBatch`]
//! commits its rows in ascending vertex order, so it already *is* this
//! layout, and [`LazyTable::from_batch_kind`] always moves the arena
//! instead of copying rows.

use crate::access::{recorder_for, AccessRecorder};
use crate::batch::{RowBatch, NO_ROW};
use crate::{CountTable, TableKind, TableStats};
use std::sync::Arc;

/// Arena-backed per-vertex optional rows.
#[derive(Debug, Clone)]
pub struct LazyTable {
    nc: usize,
    /// Active rows, `nc` doubles each, in ascending vertex order.
    data: Vec<f64>,
    /// Per-vertex arena row index; `u32::MAX` marks an inactive vertex.
    slots: Vec<u32>,
    /// Opt-in access telemetry; excluded from `bytes()` accounting.
    access: Option<Arc<AccessRecorder>>,
}

impl CountTable for LazyTable {
    fn from_batch_kind(_kind: TableKind, mut batch: RowBatch) -> Self {
        assert!(
            !batch.is_sparse(),
            "LazyTable is built from a dense RowBatch, not a sparse one (see CountTable::new_batch)"
        );
        let n = batch.num_vertices();
        let nc = batch.num_colorsets();
        batch.data.truncate(batch.committed * nc);
        // The arena may carry growth slack from staging; return it so
        // `bytes()` reports (and the process holds) exactly the rows kept.
        batch.data.shrink_to_fit();
        Self {
            nc,
            data: batch.data,
            slots: batch.slots,
            access: recorder_for(n),
        }
    }

    #[inline]
    fn num_vertices(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    fn num_colorsets(&self) -> usize {
        self.nc
    }

    #[inline]
    fn get(&self, v: usize, cs: usize) -> f64 {
        match self.slots[v] {
            NO_ROW => {
                if let Some(rec) = &self.access {
                    rec.note_inactive();
                }
                0.0
            }
            slot => {
                if let Some(rec) = &self.access {
                    rec.note_get(v);
                }
                self.data[slot as usize * self.nc + cs]
            }
        }
    }

    #[inline]
    fn vertex_active(&self, v: usize) -> bool {
        let a = self.slots[v] != NO_ROW;
        if !a {
            if let Some(rec) = &self.access {
                rec.note_inactive();
            }
        }
        a
    }

    #[inline]
    fn row_slice(&self, v: usize) -> Option<&[f64]> {
        match self.slots[v] {
            NO_ROW => {
                // A slice miss doubles as the activity check (see
                // `CountTable::has_row_slices`), so account it as one.
                if let Some(rec) = &self.access {
                    rec.note_inactive();
                }
                None
            }
            slot => {
                if let Some(rec) = &self.access {
                    rec.note_row_read(v);
                }
                let start = slot as usize * self.nc;
                Some(&self.data[start..start + self.nc])
            }
        }
    }

    fn bytes(&self) -> usize {
        // Length-based on purpose: `from_batch_kind` shrinks the arena to
        // its kept rows, and `projected_bytes` mirrors this formula.
        self.data.len() * std::mem::size_of::<f64>() + self.slots.len() * std::mem::size_of::<u32>()
    }

    fn stats(&self) -> TableStats {
        let materialized = self.slots.iter().filter(|&&s| s != NO_ROW).count();
        TableStats {
            allocated_bytes: self.bytes(),
            // Lazy materializes exactly the active rows — that is the
            // paper's "improved" memory scheme.
            rows_materialized: materialized,
            nonzero_rows: materialized,
            live_entries: self.data.iter().filter(|&&x| x != 0.0).count(),
            probe: None,
            access: self.access.as_ref().map(|rec| rec.snapshot()),
        }
    }

    fn total(&self) -> f64 {
        self.data.iter().sum()
    }

    fn kind(&self) -> TableKind {
        TableKind::Lazy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseTable;
    use crate::test_support::{batch_of, check_contract, sample_batch, sample_rows};

    #[test]
    fn satisfies_table_contract() {
        check_contract::<LazyTable>();
    }

    #[test]
    fn saves_memory_vs_dense_on_sparse_rows() {
        let n = 1000;
        let nc = 64;
        // Only 10% of vertices active.
        let rows: Vec<Option<Vec<f64>>> = (0..n)
            .map(|v| (v % 10 == 0).then(|| vec![1.0; nc]))
            .collect();
        let lazy = LazyTable::from_batch_kind(TableKind::Lazy, batch_of(nc, &rows));
        let dense = DenseTable::from_batch_kind(TableKind::Dense, batch_of(nc, &rows));
        assert!(
            lazy.bytes() * 2 < dense.bytes(),
            "lazy {} vs dense {}",
            lazy.bytes(),
            dense.bytes()
        );
        assert_eq!(lazy.total(), dense.total());
    }

    #[test]
    #[should_panic(expected = "not a sparse one")]
    fn rejects_a_sparse_batch() {
        let mut batch = RowBatch::new_sparse(3, 2);
        batch.stage()[1] = 1.0;
        batch.commit(0);
        LazyTable::from_batch_kind(TableKind::Lazy, batch);
    }

    #[test]
    fn matches_dense_semantics() {
        let lazy = LazyTable::from_batch_kind(TableKind::Lazy, sample_batch(40, 9));
        let dense = DenseTable::from_batch_kind(TableKind::Dense, sample_batch(40, 9));
        for v in 0..40 {
            for cs in 0..9 {
                assert_eq!(lazy.get(v, cs), dense.get(v, cs));
            }
        }
    }

    #[test]
    fn arena_rows_are_adjacent_in_ascending_vertex_order() {
        let rows = sample_rows(17, 4);
        let t = LazyTable::from_batch_kind(TableKind::Lazy, batch_of(4, &rows));
        let mut expect_start = 0;
        for (v, row) in rows.iter().enumerate() {
            if let Some(r) = row {
                let slice = t.row_slice(v).unwrap();
                assert_eq!(slice, &r[..]);
                // Each active row starts right where the previous ended.
                assert_eq!(
                    slice.as_ptr() as usize - t.data.as_ptr() as usize,
                    expect_start * 8
                );
                expect_start += 4;
            }
        }
    }

    /// Arenas past the huge-page threshold reserve their worst case up
    /// front where a reservation is free (`reservation_is_free`). A table
    /// built from one keeps exactly its committed rows, whether the arena
    /// comes from one pass or from `concat`.
    #[test]
    fn from_batch_keeps_exact_rows() {
        let keeps_exact_rows = |n: usize, nc: usize, batch: RowBatch, rows: &[Option<Vec<f64>>]| {
            let live = rows.iter().flatten().count();
            let a = LazyTable::from_batch_kind(TableKind::Lazy, batch);
            assert_eq!(a.bytes(), live * nc * 8 + n * 4, "n={n} nc={nc}");
            assert_eq!(a.data.capacity(), a.data.len(), "n={n} nc={nc}");
            for (v, row) in rows.iter().enumerate() {
                assert_eq!(a.row_slice(v), row.as_deref(), "vertex {v}");
            }
        };
        let fill =
            |batch: &mut RowBatch, rows: &mut [Option<Vec<f64>>], v0: usize, vs: &[usize]| {
                for &v in vs {
                    let row = batch.stage();
                    for (i, x) in row.iter_mut().enumerate() {
                        *x = (v * 7 + i % 5 + 1) as f64;
                    }
                    rows[v0 + v] = Some(row.to_vec());
                    batch.commit(v);
                }
            };
        // A worst case above the threshold that commits only a few rows:
        // the untouched pages of the reservation are free.
        let (n, nc) = (crate::batch::HUGE_ARENA_BYTES / (8 * 64) + 2, 64);
        let mut rows = vec![None; n];
        let mut batch = RowBatch::new(n, nc);
        if crate::batch::reservation_is_free() {
            assert!(batch.data.capacity() >= n * nc, "worst case reserved");
        }
        fill(&mut batch, &mut rows, 0, &[0, 3, n / 2, n - 1]);
        keeps_exact_rows(n, nc, batch, &rows);
        // The same few rows spread over two such bands.
        let mut rows = vec![None; 2 * n];
        let mut bands = [RowBatch::new(n, nc), RowBatch::new(n, nc)];
        fill(&mut bands[0], &mut rows, 0, &[1, n / 3]);
        fill(&mut bands[1], &mut rows, n, &[0, n - 1]);
        keeps_exact_rows(2 * n, nc, RowBatch::concat(2 * n, nc, bands.into()), &rows);
        // A concatenation whose exact size crosses the threshold.
        let (n, nc) = (crate::batch::HUGE_ARENA_BYTES / (8 * 4096) + 1, 4096);
        let mut rows = vec![None; n + 3];
        let mut bands = [RowBatch::new(3, nc), RowBatch::new(n, nc)];
        fill(&mut bands[0], &mut rows, 0, &[2]);
        fill(&mut bands[1], &mut rows, 3, &(0..n).collect::<Vec<_>>());
        let merged = RowBatch::concat(n + 3, nc, bands.into());
        assert_eq!(merged.data.capacity(), merged.data.len());
        keeps_exact_rows(n + 3, nc, merged, &rows);
    }
}
