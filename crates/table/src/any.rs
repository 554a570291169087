//! A layout-erased table that can pick its representation at run time.
//!
//! The engine's memory-budget degradation (DESIGN.md §11) needs a *per
//! subtemplate* layout decision: a size-4 subtemplate may fit dense while
//! the size-7 parent must fall back to hashed. The concrete layouts are
//! monomorphized into the DP, so [`AnyTable`] wraps all three behind one
//! type and dispatches [`CountTable::from_batch_kind`] on the requested
//! [`TableKind`] — the virtual-dispatch cost is paid only when a budget is
//! configured.

use crate::{CountTable, DenseTable, HashCountTable, LazyTable, RowBatch, TableKind, TableStats};

/// One of the three layouts, chosen at construction time.
#[derive(Debug, Clone)]
pub enum AnyTable {
    /// Naive dense array.
    Dense(DenseTable),
    /// Lazily materialized rows.
    Lazy(LazyTable),
    /// Modulo-hashed sparse table.
    Hash(HashCountTable),
}

macro_rules! dispatch {
    ($self:expr, $t:ident => $body:expr) => {
        match $self {
            AnyTable::Dense($t) => $body,
            AnyTable::Lazy($t) => $body,
            AnyTable::Hash($t) => $body,
        }
    };
}

impl CountTable for AnyTable {
    fn from_batch_kind(kind: TableKind, batch: RowBatch) -> Self {
        match kind {
            TableKind::Dense => AnyTable::Dense(DenseTable::from_batch_kind(kind, batch)),
            TableKind::Lazy => AnyTable::Lazy(LazyTable::from_batch_kind(kind, batch)),
            TableKind::Hash => AnyTable::Hash(HashCountTable::from_batch_kind(kind, batch)),
        }
    }

    #[inline]
    fn num_vertices(&self) -> usize {
        dispatch!(self, t => t.num_vertices())
    }

    #[inline]
    fn num_colorsets(&self) -> usize {
        dispatch!(self, t => t.num_colorsets())
    }

    #[inline]
    fn get(&self, v: usize, cs: usize) -> f64 {
        dispatch!(self, t => t.get(v, cs))
    }

    #[inline]
    fn vertex_active(&self, v: usize) -> bool {
        dispatch!(self, t => t.vertex_active(v))
    }

    #[inline]
    fn row_slice(&self, v: usize) -> Option<&[f64]> {
        dispatch!(self, t => t.row_slice(v))
    }

    #[inline]
    fn has_row_slices(&self) -> bool {
        dispatch!(self, t => t.has_row_slices())
    }

    #[inline]
    fn add_row_into(&self, v: usize, acc: &mut [f64]) {
        dispatch!(self, t => t.add_row_into(v, acc))
    }

    #[inline]
    fn prefetch_row_hint(&self, v: usize) {
        dispatch!(self, t => t.prefetch_row_hint(v))
    }

    fn bytes(&self) -> usize {
        dispatch!(self, t => t.bytes())
    }

    fn stats(&self) -> TableStats {
        dispatch!(self, t => t.stats())
    }

    fn total(&self) -> f64 {
        dispatch!(self, t => t.total())
    }

    fn kind(&self) -> TableKind {
        dispatch!(self, t => t.kind())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::projected_bytes;
    use crate::test_support::{check_contract, sample_batch};

    #[test]
    fn satisfies_table_contract() {
        check_contract::<AnyTable>();
    }

    #[test]
    fn dispatches_each_kind() {
        let (n, nc) = (19, 5);
        let direct = LazyTable::from_batch_kind(TableKind::Lazy, sample_batch(n, nc));
        for kind in TableKind::all() {
            let t = AnyTable::from_batch_kind(kind, sample_batch(n, nc));
            assert_eq!(t.kind(), kind);
            assert_eq!(t.total(), direct.total(), "kind {kind:?}");
        }
    }

    #[test]
    fn projection_matches_built_bytes() {
        let (n, nc) = (200, 12);
        let batch = sample_batch(n, nc);
        let (active, live) = (batch.active_rows(), batch.live_entries());
        for kind in TableKind::all() {
            let projected = projected_bytes(kind, n, nc, active, live);
            let built = AnyTable::from_batch_kind(kind, batch.clone()).bytes();
            assert_eq!(projected, built, "kind {kind:?}");
        }
    }
    #[test]
    fn ladder_never_steps_up() {
        assert_eq!(TableKind::Dense.ladder().len(), 3);
        assert_eq!(
            TableKind::Lazy.ladder(),
            &[TableKind::Lazy, TableKind::Hash]
        );
        assert_eq!(TableKind::Hash.ladder(), &[TableKind::Hash]);
        for kind in TableKind::all() {
            assert_eq!(
                kind.ladder()[0],
                kind,
                "ladder starts at the preferred kind"
            );
        }
    }
}
