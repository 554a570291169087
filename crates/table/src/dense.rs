//! The naive dense table: `n x Nc` fully allocated.
//!
//! This is the paper's baseline memory scheme ("initializing all storage
//! regardless of need"). It has the fastest accesses (single multiply-add
//! indexing) but the worst footprint; Figures 6–7 compare it against the
//! lazy and hashed layouts.

use crate::access::{recorder_for, AccessRecorder};
use crate::{CountTable, RowBatch, TableKind, TableStats};
use std::sync::Arc;

/// Flat row-major `n x Nc` array of counts.
#[derive(Debug, Clone)]
pub struct DenseTable {
    n: usize,
    nc: usize,
    data: Vec<f64>,
    /// Cached per-vertex activity (any non-zero in the row), kept so the
    /// inner-loop skip check stays O(1) instead of O(Nc).
    active: Vec<bool>,
    /// Opt-in access telemetry; excluded from `bytes()` accounting.
    access: Option<Arc<AccessRecorder>>,
}

impl CountTable for DenseTable {
    fn from_batch_kind(_kind: TableKind, batch: RowBatch) -> Self {
        assert!(
            !batch.is_sparse(),
            "DenseTable is built from a dense RowBatch, not a sparse one (see CountTable::new_batch)"
        );
        let n = batch.num_vertices();
        let nc = batch.num_colorsets();
        let mut data = vec![0.0f64; n * nc];
        let mut active = vec![false; n];
        for v in 0..n {
            if let Some(row) = batch.row(v) {
                data[v * nc..(v + 1) * nc].copy_from_slice(&row);
                // Committed rows are active by the staging contract (only
                // non-zero rows are committed), matching the lazy arena's
                // slot semantics without rescanning every row.
                active[v] = true;
            }
        }
        Self {
            n,
            nc,
            data,
            active,
            access: recorder_for(n),
        }
    }

    #[inline]
    fn num_vertices(&self) -> usize {
        self.n
    }

    #[inline]
    fn num_colorsets(&self) -> usize {
        self.nc
    }

    #[inline]
    fn get(&self, v: usize, cs: usize) -> f64 {
        if let Some(rec) = &self.access {
            rec.note_get(v);
        }
        self.data[v * self.nc + cs]
    }

    #[inline]
    fn vertex_active(&self, v: usize) -> bool {
        let a = self.active[v];
        if !a {
            if let Some(rec) = &self.access {
                rec.note_inactive();
            }
        }
        a
    }

    #[inline]
    fn row_slice(&self, v: usize) -> Option<&[f64]> {
        if self.active[v] {
            if let Some(rec) = &self.access {
                rec.note_row_read(v);
            }
            Some(&self.data[v * self.nc..(v + 1) * self.nc])
        } else {
            // A slice miss doubles as the activity check (see
            // `CountTable::has_row_slices`), so account it as one.
            if let Some(rec) = &self.access {
                rec.note_inactive();
            }
            None
        }
    }

    fn bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<f64>() + self.active.capacity()
    }

    fn stats(&self) -> TableStats {
        TableStats {
            allocated_bytes: self.bytes(),
            // Dense pays for every row whether or not it is used.
            rows_materialized: self.n,
            nonzero_rows: self.active.iter().filter(|&&a| a).count(),
            live_entries: self.data.iter().filter(|&&x| x != 0.0).count(),
            probe: None,
            access: self.access.as_ref().map(|rec| rec.snapshot()),
        }
    }

    fn total(&self) -> f64 {
        self.data.iter().sum()
    }

    fn kind(&self) -> TableKind {
        TableKind::Dense
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::check_contract;

    #[test]
    fn satisfies_table_contract() {
        check_contract::<DenseTable>();
    }

    #[test]
    fn bytes_are_full_allocation() {
        let t = DenseTable::from_batch_kind(TableKind::Dense, RowBatch::new(10, 5));
        // Dense always pays the full n * nc doubles.
        assert!(t.bytes() >= 10 * 5 * 8);
        assert_eq!(t.total(), 0.0);
    }

    #[test]
    #[should_panic(expected = "not a sparse one")]
    fn rejects_a_sparse_batch() {
        DenseTable::from_batch_kind(TableKind::Dense, RowBatch::new_sparse(3, 2));
    }

    #[test]
    fn empty_rows_read_as_zero() {
        let t = DenseTable::from_batch_kind(TableKind::Dense, RowBatch::new(3, 2));
        for v in 0..3 {
            assert!(!t.vertex_active(v));
            assert_eq!(t.get(v, 0), 0.0);
            assert!(t.row_slice(v).is_none());
        }
    }
}
