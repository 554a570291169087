//! Arena-staged row batches for the vectorized DP kernel.
//!
//! The scalar DP emits one `Option<Box<[f64]>>` per vertex ([`Rows`]),
//! paying one heap allocation per active vertex. The vectorized kernel
//! (DESIGN.md §15) instead stages rows into a single contiguous arena:
//! `stage()` hands out a zeroed scratch row at the arena tail, and
//! `commit(v)` keeps it as vertex `v`'s row — an uncommitted row is simply
//! overwritten by the next `stage()`. Construction of the final table then
//! consumes the arena directly (see [`crate::CountTable::from_batch_kind`]),
//! so the hot loop performs **zero** per-row allocations.
//!
//! Committed rows live in the arena in commit order. A full pass commits
//! in ascending vertex order, which makes the arena identical to the
//! colorset-major layout [`crate::LazyTable`] stores — its `from_batch` is
//! a move, not a copy. Passes over owned-vertex subsets may commit in any
//! order ([`RowBatch::in_vertex_order`] tells them apart).

use crate::Rows;

/// Per-vertex slot value marking "no committed row".
pub(crate) const NO_ROW: u32 = u32::MAX;

/// A growable arena of fixed-width `f64` rows with per-vertex slots.
///
/// ```
/// use fascia_table::{CountTable, LazyTable, RowBatch, TableKind};
///
/// let mut batch = RowBatch::new(4, 3);
/// let row = batch.stage();       // zeroed scratch row at the arena tail
/// row[1] = 2.0;
/// batch.commit(0);               // keep it as vertex 0's row
/// let _ = batch.stage();         // staged but never committed: discarded
/// let row = batch.stage();
/// row[2] = 5.0;
/// batch.commit(3);
/// assert_eq!(batch.active_rows(), 2);
/// assert_eq!(batch.live_entries(), 2);
///
/// let table = LazyTable::from_batch_kind(TableKind::Lazy, batch);
/// assert_eq!(table.get(0, 1), 2.0);
/// assert_eq!(table.get(3, 2), 5.0);
/// assert!(!table.vertex_active(1));
/// ```
#[derive(Debug, Clone)]
pub struct RowBatch {
    n: usize,
    nc: usize,
    /// Committed rows (`committed * nc` doubles), plus at most one staged
    /// row at the tail.
    pub(crate) data: Vec<f64>,
    /// Per-vertex arena row index, [`NO_ROW`] when the vertex has none.
    pub(crate) slots: Vec<u32>,
    pub(crate) committed: usize,
}

impl RowBatch {
    /// An empty batch for `n` vertices with `nc`-slot rows.
    pub fn new(n: usize, nc: usize) -> Self {
        Self {
            n,
            nc,
            data: Vec::new(),
            slots: vec![NO_ROW; n],
            committed: 0,
        }
    }

    /// Number of vertices this batch covers.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Row width (color-set slots per vertex).
    #[inline]
    pub fn num_colorsets(&self) -> usize {
        self.nc
    }

    /// A zeroed scratch row at the arena tail. The row becomes permanent
    /// only on [`RowBatch::commit`]; calling `stage` again first reuses
    /// (and re-zeroes) the same storage.
    #[inline]
    pub fn stage(&mut self) -> &mut [f64] {
        let start = self.committed * self.nc;
        if self.data.len() < start + self.nc {
            // Freshly grown storage is already zero; only a reused
            // (staged-but-discarded) row needs explicit re-zeroing.
            self.data.resize(start + self.nc, 0.0);
            &mut self.data[start..start + self.nc]
        } else {
            let row = &mut self.data[start..start + self.nc];
            row.fill(0.0);
            row
        }
    }

    /// Commits the currently staged row as vertex `v`'s row.
    ///
    /// # Panics
    /// Panics if `v` is out of range, already has a row, or nothing was
    /// staged since the last commit.
    #[inline]
    pub fn commit(&mut self, v: usize) {
        assert!(
            self.data.len() >= (self.committed + 1) * self.nc,
            "commit without a staged row"
        );
        assert_eq!(self.slots[v], NO_ROW, "vertex {v} committed twice");
        self.slots[v] = self.committed as u32;
        self.committed += 1;
    }

    /// Number of committed rows.
    #[inline]
    pub fn active_rows(&self) -> usize {
        self.committed
    }

    /// Non-zero entries across committed rows (memory-budget projection
    /// input; scans the arena).
    pub fn live_entries(&self) -> usize {
        self.data[..self.committed * self.nc]
            .iter()
            .filter(|&&x| x != 0.0)
            .count()
    }

    /// The committed row of vertex `v`, if any.
    #[inline]
    pub fn row(&self, v: usize) -> Option<&[f64]> {
        match self.slots[v] {
            NO_ROW => None,
            slot => {
                let start = slot as usize * self.nc;
                Some(&self.data[start..start + self.nc])
            }
        }
    }

    /// Concatenates per-band batches into one, in band order. Band `i`
    /// covers the next `parts[i].num_vertices()` global vertices; its
    /// local vertex 0 becomes the global vertex at the running offset.
    /// Used by the inner-parallel kernel: each worker fills a private
    /// band batch, and the deterministic band order makes the merged
    /// arena identical to a serial pass.
    ///
    /// # Panics
    /// Panics if the band widths disagree with `nc` or the bands do not
    /// cover exactly `n` vertices.
    pub fn concat(n: usize, nc: usize, parts: Vec<RowBatch>) -> Self {
        let total_rows: usize = parts.iter().map(|p| p.committed).sum();
        let mut out = Self {
            n,
            nc,
            data: Vec::with_capacity(total_rows * nc),
            slots: Vec::with_capacity(n),
            committed: 0,
        };
        for part in parts {
            assert_eq!(part.nc, nc, "band row width mismatch");
            for slot in &part.slots {
                out.slots.push(match *slot {
                    NO_ROW => NO_ROW,
                    s => s + out.committed as u32,
                });
            }
            out.data
                .extend_from_slice(&part.data[..part.committed * nc]);
            out.committed += part.committed;
        }
        assert_eq!(out.slots.len(), n, "bands must cover every vertex");
        out
    }

    /// Whether the arena holds the committed rows in ascending vertex
    /// order (true for every full pass).
    pub fn in_vertex_order(&self) -> bool {
        self.slots
            .iter()
            .filter(|&&s| s != NO_ROW)
            .enumerate()
            .all(|(i, &s)| s as usize == i)
    }

    /// Converts to the boxed per-vertex representation (the compatibility
    /// path behind [`crate::CountTable::from_batch_kind`]'s default).
    pub fn into_rows(self) -> Rows {
        let Self {
            n, nc, data, slots, ..
        } = self;
        (0..n)
            .map(|v| match slots[v] {
                NO_ROW => None,
                slot => {
                    let start = slot as usize * nc;
                    Some(data[start..start + nc].to_vec().into_boxed_slice())
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_commit_roundtrip() {
        let mut b = RowBatch::new(5, 2);
        b.stage()[0] = 1.0;
        b.commit(1);
        b.stage()[1] = 9.0; // never committed
        let r = b.stage();
        assert_eq!(r, &[0.0, 0.0], "stage re-zeroes discarded rows");
        r[1] = 3.0;
        b.commit(4);
        assert_eq!(b.active_rows(), 2);
        assert_eq!(b.live_entries(), 2);
        assert_eq!(b.row(1), Some(&[1.0, 0.0][..]));
        assert_eq!(b.row(4), Some(&[0.0, 3.0][..]));
        assert_eq!(b.row(0), None);
        let rows = b.into_rows();
        assert!(rows[0].is_none());
        assert_eq!(rows[1].as_deref(), Some(&[1.0, 0.0][..]));
    }

    #[test]
    #[should_panic]
    fn commit_without_stage_panics() {
        let mut b = RowBatch::new(3, 2);
        b.commit(0);
    }

    #[test]
    #[should_panic]
    fn double_commit_panics() {
        let mut b = RowBatch::new(3, 2);
        b.stage();
        b.commit(0);
        b.stage();
        b.commit(0);
    }

    #[test]
    fn concat_matches_serial_fill() {
        let mut serial = RowBatch::new(6, 2);
        let mut band0 = RowBatch::new(3, 2);
        let mut band1 = RowBatch::new(3, 2);
        for v in 0..6usize {
            if v % 2 == 0 {
                continue;
            }
            let band = if v < 3 { &mut band0 } else { &mut band1 };
            band.stage()[0] = v as f64;
            band.commit(v % 3);
            serial.stage()[0] = v as f64;
            serial.commit(v);
        }
        let merged = RowBatch::concat(6, 2, vec![band0, band1]);
        assert_eq!(merged.active_rows(), serial.active_rows());
        for v in 0..6 {
            assert_eq!(merged.row(v), serial.row(v), "vertex {v}");
        }
        assert_eq!(merged.data, serial.data);
    }
}
