//! Row batches: the one input every table layout is built from.
//!
//! The DP stages one row per vertex: `stage()` hands out a zeroed
//! `nc`-wide scratch row, and `commit(v)` keeps it as vertex `v`'s row —
//! an uncommitted row is simply overwritten by the next `stage()`.
//! Construction of the final table then consumes the batch directly (see
//! [`crate::CountTable::from_batch_kind`]), so the hot loop performs
//! **zero** per-row allocations.
//!
//! A batch keeps its committed rows in one of two forms, fixed when it is
//! created:
//!
//! * **Dense** ([`RowBatch::new`]) — rows are staged in place at the tail
//!   of one contiguous `committed · nc` arena. The lazy and dense layouts
//!   build from it: it already *is* the colorset-major arena
//!   [`crate::LazyTable`] stores, whose `from_batch_kind` is a move, not a
//!   copy.
//! * **Sparse** ([`RowBatch::new_sparse`]) — one scratch row is reused
//!   for every vertex, and `commit(v)` appends only its non-zero entries
//!   as `(v · nc + cs, value)` records in ascending `cs`. The hashed
//!   layout keeps ~1% of a row's slots on the sparse inputs it exists for,
//!   so staging it densely would cost an `n · nc` arena to build a table a
//!   hundredth that size. [`crate::HashCountTable`] inserts the records
//!   directly, in the order the dense form would hand them over.
//!
//! Each layout names the form it builds from through
//! [`crate::CountTable::new_batch`]. The budget-gated
//! [`crate::AnyTable`] keeps the dense form: its gate picks the layout
//! only after the pass, and may still pick lazy or dense. The lazy and
//! dense layouts panic on a sparse batch.
//!
//! Two rules make one construction path safe for every layout. A batch
//! commits rows in ascending vertex order, which fixes the order in which
//! every layout stores and sums its entries. And only rows with a non-zero
//! entry are committed, so a committed row *is* an active vertex: the
//! layouts mark committed rows active without rescanning them.
//! [`RowBatch::commit`] asserts the first rule, and debug builds the
//! second.
//!
//! On Linux, a dense arena whose size reaches 32 MiB (`HUGE_ARENA_BYTES`)
//! reserves that capacity once and asks the kernel for transparent huge
//! pages before the first row is written (see `huge_arena`); smaller
//! arenas grow on demand. `concat` knows its exact size; `new` reserves
//! its `n · nc` worst case only where an unused reservation costs nothing
//! but address space (see `reservation_is_free`).

use std::borrow::Cow;

/// Per-vertex slot value marking "no committed row".
pub(crate) const NO_ROW: u32 = u32::MAX;

/// Worst-case arena size from which an arena is reserved up front and
/// advised for huge pages: glibc's largest dynamic mmap threshold, so an
/// arena this large is always a fresh mapping that would otherwise be
/// faulted in one 4 KiB page at a time.
pub(crate) const HUGE_ARENA_BYTES: usize = 32 << 20;

/// An empty arena with room for `doubles` slots, reserved in one piece
/// and advised `MADV_HUGEPAGE` before first touch, when `doubles` reaches
/// [`HUGE_ARENA_BYTES`] and the reservation succeeds; `None` otherwise
/// (the caller keeps its usual allocation), and always off Linux. The
/// reservation is virtual: pages nobody writes are never backed. The
/// advice's result is ignored.
///
/// Reserving once matters: an arena grown by doubling is moved by
/// `mremap`, which splits any huge pages it already holds.
#[cfg(target_os = "linux")]
fn huge_arena(doubles: usize) -> Option<Vec<f64>> {
    use std::ffi::c_void;
    extern "C" {
        fn madvise(addr: *mut c_void, len: usize, advice: i32) -> i32;
    }
    const MADV_HUGEPAGE: i32 = 14;
    const PAGE: usize = 4096;
    if doubles.saturating_mul(std::mem::size_of::<f64>()) < HUGE_ARENA_BYTES {
        return None;
    }
    let mut data: Vec<f64> = Vec::new();
    data.try_reserve_exact(doubles).ok()?;
    let start = data.as_ptr() as usize;
    let end = start + data.capacity() * std::mem::size_of::<f64>();
    // madvise wants a page-aligned start; the page holding the arena's
    // first byte belongs to the same mapping.
    let aligned = start & !(PAGE - 1);
    // SAFETY: madvise reads no memory through the pointer, and
    // MADV_HUGEPAGE only changes the paging policy of the range; it never
    // unmaps or rewrites it.
    unsafe {
        madvise(aligned as *mut c_void, end - aligned, MADV_HUGEPAGE);
    }
    Some(data)
}

#[cfg(not(target_os = "linux"))]
fn huge_arena(_doubles: usize) -> Option<Vec<f64>> {
    None
}

/// Whether reserving an arena's worst case, most of which may never be
/// written, costs nothing but address space: the kernel does not charge
/// reservations against a strict commit limit (`vm.overcommit_memory` is
/// not 2) and the process has no address-space limit (`RLIMIT_AS`). On a
/// host where either holds, an unused reservation could use up headroom
/// a later allocation needs, so [`RowBatch::new`] grows on demand there.
/// Read once per process.
#[cfg(target_os = "linux")]
pub(crate) fn reservation_is_free() -> bool {
    use std::ffi::c_ulong;
    use std::sync::OnceLock;
    #[repr(C)]
    struct Rlimit {
        cur: c_ulong,
        max: c_ulong,
    }
    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
    }
    const RLIMIT_AS: i32 = 9;
    const RLIM_INFINITY: c_ulong = c_ulong::MAX;
    static FREE: OnceLock<bool> = OnceLock::new();
    *FREE.get_or_init(|| {
        let lazy_commit = std::fs::read_to_string("/proc/sys/vm/overcommit_memory")
            .is_ok_and(|mode| mode.trim() != "2");
        let mut lim = Rlimit { cur: 0, max: 0 };
        // SAFETY: getrlimit writes one `struct rlimit` (two `rlim_t`,
        // i.e. `unsigned long`, on Linux) through the pointer.
        let unlimited = unsafe { getrlimit(RLIMIT_AS, &mut lim) } == 0 && lim.cur == RLIM_INFINITY;
        lazy_commit && unlimited
    })
}

#[cfg(not(target_os = "linux"))]
pub(crate) fn reservation_is_free() -> bool {
    false
}

/// Fixed-width `f64` rows with per-vertex slots, staged densely into one
/// arena or sparsely as `(key, value)` records (see the module docs).
///
/// ```
/// use fascia_table::{CountTable, HashCountTable, LazyTable, RowBatch, TableKind};
///
/// let mut batch = RowBatch::new(4, 3); // the dense form
/// let row = batch.stage();             // zeroed scratch row at the arena tail
/// row[1] = 2.0;
/// batch.commit(0);                     // keep it as vertex 0's row
/// let _ = batch.stage();               // staged but never committed: discarded
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
///
/// // The hashed layout stages the same rows sparsely: only the two
/// // non-zero entries are kept.
/// let mut batch = HashCountTable::new_batch(4, 3);
/// assert!(batch.is_sparse());
/// batch.stage()[1] = 2.0;
/// batch.commit(0);
/// batch.stage()[2] = 5.0;
/// batch.commit(3);
/// assert_eq!(batch.live_entries(), 2);
/// let table = HashCountTable::from_batch_kind(TableKind::Hash, batch);
/// assert_eq!(table.get(3, 2), 5.0);
/// ```
#[derive(Debug, Clone)]
pub struct RowBatch {
    n: usize,
    nc: usize,
    /// Dense form: committed rows (`committed * nc` doubles), plus at most
    /// one staged row at the tail. Empty in the sparse form.
    pub(crate) data: Vec<f64>,
    /// The sparse form's scratch row and records; `None` in the dense
    /// form.
    pub(crate) sparse: Option<Records>,
    /// Per-vertex committed-row index, [`NO_ROW`] when the vertex has
    /// none.
    pub(crate) slots: Vec<u32>,
    pub(crate) committed: usize,
    /// Lowest vertex the next commit may name (one past the last
    /// committed vertex).
    next: usize,
}

/// The sparse form's staging state.
#[derive(Debug, Clone)]
pub(crate) struct Records {
    /// The one `nc`-wide scratch row `stage` hands out; all zero between a
    /// commit and the next `stage`.
    row: Vec<f64>,
    /// Whether `row` was handed out since the last commit, and so may hold
    /// values.
    staged: bool,
    /// `(v · nc + cs, value)` for every non-zero entry of every committed
    /// row, in ascending key order.
    pub(crate) entries: Vec<(u64, f64)>,
}

impl Records {
    fn new(nc: usize) -> Self {
        Self {
            row: vec![0.0; nc],
            staged: false,
            entries: Vec::new(),
        }
    }

    /// The zeroed scratch row.
    #[inline]
    fn stage(&mut self) -> &mut [f64] {
        if self.staged {
            // A staged-but-discarded row; a commit leaves it zeroed.
            self.row.fill(0.0);
        }
        self.staged = true;
        &mut self.row
    }

    /// Appends the staged row's non-zero entries as records keyed from
    /// `base`, in ascending colorset order, and re-zeroes them. Returns
    /// whether the row held any.
    ///
    /// # Panics
    /// Panics if nothing was staged since the last commit.
    #[inline]
    fn commit_row(&mut self, base: u64) -> bool {
        assert!(self.staged, "commit without a staged row");
        self.staged = false;
        let before = self.entries.len();
        for (cs, x) in self.row.iter_mut().enumerate() {
            if *x != 0.0 {
                self.entries.push((base + cs as u64, *x));
                *x = 0.0;
            }
        }
        self.entries.len() > before
    }

    /// The entries of row `v` (keys `v · nc .. v · nc + nc`).
    fn row_entries(&self, v: usize, nc: usize) -> &[(u64, f64)] {
        let key = |v: usize| (v * nc) as u64;
        let lo = self.entries.partition_point(|&(k, _)| k < key(v));
        let hi = self.entries.partition_point(|&(k, _)| k < key(v + 1));
        &self.entries[lo..hi]
    }
}

impl RowBatch {
    /// An empty dense batch for `n` vertices with `nc`-slot rows. When
    /// `n · nc` slots reach 32 MiB and an unused reservation is free, that
    /// upper bound is reserved up front (see the module docs).
    pub fn new(n: usize, nc: usize) -> Self {
        let data = if reservation_is_free() {
            huge_arena(n.saturating_mul(nc))
        } else {
            None
        };
        Self {
            n,
            nc,
            data: data.unwrap_or_default(),
            sparse: None,
            slots: vec![NO_ROW; n],
            committed: 0,
            next: 0,
        }
    }

    /// An empty sparse batch for `n` vertices with `nc`-slot rows: it
    /// holds one scratch row plus the committed rows' non-zero entries.
    pub fn new_sparse(n: usize, nc: usize) -> Self {
        Self {
            n,
            nc,
            data: Vec::new(),
            sparse: Some(Records::new(nc)),
            slots: vec![NO_ROW; n],
            committed: 0,
            next: 0,
        }
    }

    /// An empty batch of this batch's form and row width for `n`
    /// vertices.
    pub fn empty_like(&self, n: usize) -> Self {
        match self.sparse {
            Some(_) => Self::new_sparse(n, self.nc),
            None => Self::new(n, self.nc),
        }
    }

    /// Whether this batch stages its rows sparsely (see the module docs).
    #[inline]
    pub fn is_sparse(&self) -> bool {
        self.sparse.is_some()
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

    /// A zeroed scratch row: at the arena tail in the dense form, the one
    /// reused row in the sparse form. The row becomes permanent only on
    /// [`RowBatch::commit`]; calling `stage` again first reuses (and
    /// re-zeroes) the same storage.
    #[inline]
    pub fn stage(&mut self) -> &mut [f64] {
        if let Some(records) = &mut self.sparse {
            return records.stage();
        }
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

    /// Commits the currently staged row as vertex `v`'s row. The row must
    /// hold a non-zero entry (checked in debug builds). The sparse form
    /// appends the row's non-zero entries as records and re-zeroes them.
    ///
    /// # Panics
    /// Panics if `v` is out of range, is not above the last committed
    /// vertex, or nothing was staged since the last commit.
    #[inline]
    pub fn commit(&mut self, v: usize) {
        if let Some(records) = &mut self.sparse {
            assert!(
                v >= self.next,
                "vertex {v} committed after vertex {}",
                self.next - 1
            );
            let nonzero = records.commit_row((v * self.nc) as u64);
            debug_assert!(nonzero, "vertex {v} committed an all-zero row");
            self.slots[v] = self.committed as u32;
            self.committed += 1;
            self.next = v + 1;
            return;
        }
        let start = self.committed * self.nc;
        assert!(
            self.data.len() >= start + self.nc,
            "commit without a staged row"
        );
        assert!(
            v >= self.next,
            "vertex {v} committed after vertex {}",
            self.next - 1
        );
        debug_assert!(
            self.data[start..start + self.nc].iter().any(|&x| x != 0.0),
            "vertex {v} committed an all-zero row"
        );
        self.slots[v] = self.committed as u32;
        self.committed += 1;
        self.next = v + 1;
    }

    /// Number of committed rows.
    #[inline]
    pub fn active_rows(&self) -> usize {
        self.committed
    }

    /// Non-zero entries across committed rows (memory-budget projection
    /// input): a scan of the arena in the dense form, the record count in
    /// the sparse form.
    pub fn live_entries(&self) -> usize {
        match &self.sparse {
            Some(records) => records.entries.len(),
            None => self.data[..self.committed * self.nc]
                .iter()
                .filter(|&&x| x != 0.0)
                .count(),
        }
    }

    /// The committed row of vertex `v`, if any: borrowed from the arena in
    /// the dense form, rebuilt from the records in the sparse form.
    #[inline]
    pub fn row(&self, v: usize) -> Option<Cow<'_, [f64]>> {
        let slot = self.slots[v];
        if slot == NO_ROW {
            return None;
        }
        Some(match &self.sparse {
            Some(records) => {
                let mut row = vec![0.0; self.nc];
                let base = (v * self.nc) as u64;
                for &(key, x) in records.row_entries(v, self.nc) {
                    row[(key - base) as usize] = x;
                }
                Cow::Owned(row)
            }
            None => {
                let start = slot as usize * self.nc;
                Cow::Borrowed(&self.data[start..start + self.nc])
            }
        })
    }

    /// Concatenates per-band batches into one, in band order. Band `i`
    /// covers the next `parts[i].num_vertices()` global vertices; its
    /// local vertex 0 becomes the global vertex at the running offset.
    /// Used by the inner-parallel kernel: each worker fills a private
    /// band batch, and the deterministic band order makes the merged
    /// rows identical to a serial pass — arena for arena in the dense
    /// form, record for record (keys shifted by the band's offset) in the
    /// sparse form. The merged batch takes the bands' form.
    ///
    /// # Panics
    /// Panics if the band widths disagree with `nc`, the bands mix forms,
    /// or the bands do not cover exactly `n` vertices.
    pub fn concat(n: usize, nc: usize, parts: Vec<RowBatch>) -> Self {
        let sparse = parts.first().is_some_and(RowBatch::is_sparse);
        let total_rows: usize = parts.iter().map(|p| p.committed).sum();
        let mut out = Self {
            n,
            nc,
            data: Vec::new(),
            sparse: None,
            slots: Vec::with_capacity(n),
            committed: 0,
            next: 0,
        };
        if sparse {
            let mut records = Records::new(nc);
            records.entries = Vec::with_capacity(parts.iter().map(|p| p.live_entries()).sum());
            out.sparse = Some(records);
        } else {
            out.data =
                huge_arena(total_rows * nc).unwrap_or_else(|| Vec::with_capacity(total_rows * nc));
        }
        for part in parts {
            assert_eq!(part.nc, nc, "band row width mismatch");
            assert_eq!(part.is_sparse(), sparse, "bands mix batch forms");
            if part.committed > 0 {
                out.next = out.slots.len() + part.next;
            }
            let key_offset = (out.slots.len() * nc) as u64;
            for slot in &part.slots {
                out.slots.push(match *slot {
                    NO_ROW => NO_ROW,
                    s => s + out.committed as u32,
                });
            }
            match (&mut out.sparse, &part.sparse) {
                (Some(merged), Some(band)) => merged
                    .entries
                    .extend(band.entries.iter().map(|&(k, x)| (k + key_offset, x))),
                _ => out
                    .data
                    .extend_from_slice(&part.data[..part.committed * nc]),
            }
            out.committed += part.committed;
        }
        assert_eq!(out.slots.len(), n, "bands must cover every vertex");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A dense and a sparse empty batch of the same shape.
    fn both_forms(n: usize, nc: usize) -> [RowBatch; 2] {
        [RowBatch::new(n, nc), RowBatch::new_sparse(n, nc)]
    }

    #[test]
    fn stage_commit_roundtrip() {
        for mut b in both_forms(5, 2) {
            b.stage()[0] = 1.0;
            b.commit(1);
            b.stage()[1] = 9.0; // never committed
            let r = b.stage();
            assert_eq!(r, &[0.0, 0.0], "stage re-zeroes discarded rows");
            r[1] = 3.0;
            b.commit(4);
            assert_eq!(b.active_rows(), 2);
            assert_eq!(b.live_entries(), 2);
            assert_eq!(b.row(1).as_deref(), Some(&[1.0, 0.0][..]));
            assert_eq!(b.row(4).as_deref(), Some(&[0.0, 3.0][..]));
            assert_eq!(b.row(0), None);
            assert_eq!(b.stage(), &[0.0, 0.0], "a commit leaves the row zeroed");
        }
    }

    #[test]
    fn sparse_commit_keeps_nonzero_records_in_key_order() {
        let mut b = RowBatch::new_sparse(4, 3);
        b.stage().copy_from_slice(&[2.0, 0.0, 1.0]);
        b.commit(1);
        b.stage()[1] = 4.0;
        b.commit(3);
        let records = &b.sparse.as_ref().unwrap().entries;
        assert_eq!(records, &[(3, 2.0), (5, 1.0), (10, 4.0)]);
        assert!(b.data.is_empty(), "the sparse form keeps no arena");
        assert!(b.empty_like(2).is_sparse());
        assert_eq!(b.empty_like(2).num_vertices(), 2);
    }

    #[test]
    #[should_panic(expected = "without a staged row")]
    fn commit_without_stage_panics() {
        let mut b = RowBatch::new(3, 2);
        b.commit(0);
    }

    #[test]
    #[should_panic(expected = "without a staged row")]
    fn sparse_commit_without_stage_panics() {
        let mut b = RowBatch::new_sparse(3, 2);
        b.stage()[0] = 1.0;
        b.commit(0);
        b.commit(1);
    }

    #[test]
    #[should_panic(expected = "committed after")]
    fn double_commit_panics() {
        let mut b = RowBatch::new(3, 2);
        b.stage()[0] = 1.0;
        b.commit(0);
        b.stage()[0] = 1.0;
        b.commit(0);
    }

    #[test]
    #[should_panic(expected = "committed after")]
    fn sparse_double_commit_panics() {
        let mut b = RowBatch::new_sparse(3, 2);
        b.stage()[0] = 1.0;
        b.commit(0);
        b.stage()[0] = 1.0;
        b.commit(0);
    }

    #[test]
    #[should_panic(expected = "committed after")]
    fn descending_commit_panics() {
        let mut b = RowBatch::new(3, 2);
        b.stage()[0] = 1.0;
        b.commit(2);
        b.stage()[0] = 1.0;
        b.commit(1);
    }

    #[test]
    #[should_panic(expected = "committed after")]
    fn sparse_descending_commit_panics() {
        let mut b = RowBatch::new_sparse(3, 2);
        b.stage()[0] = 1.0;
        b.commit(2);
        b.stage()[0] = 1.0;
        b.commit(1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "all-zero row")]
    fn all_zero_commit_panics_in_debug_builds() {
        let mut b = RowBatch::new(3, 2);
        b.stage();
        b.commit(0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "all-zero row")]
    fn sparse_all_zero_commit_panics_in_debug_builds() {
        let mut b = RowBatch::new_sparse(3, 2);
        b.stage();
        b.commit(0);
    }

    #[test]
    fn concat_matches_serial_fill() {
        for mut serial in both_forms(9, 2) {
            let mut bands = [0, 1, 2].map(|_| serial.empty_like(3));
            for v in (1..9).step_by(2) {
                let row = [v as f64, if v % 3 == 0 { 0.0 } else { 0.5 }];
                let band = &mut bands[v / 3];
                band.stage()[1] = 7.0; // discarded: the next stage re-zeroes it
                band.stage().copy_from_slice(&row);
                band.commit(v % 3);
                serial.stage().copy_from_slice(&row);
                serial.commit(v);
            }
            let merged = RowBatch::concat(9, 2, bands.into());
            assert_eq!(merged.is_sparse(), serial.is_sparse());
            assert_eq!(merged.active_rows(), serial.active_rows());
            assert_eq!(merged.live_entries(), serial.live_entries());
            for v in 0..9 {
                assert_eq!(merged.row(v), serial.row(v), "vertex {v}");
            }
            assert_eq!(merged.data, serial.data);
            assert_eq!(
                merged.sparse.map(|r| r.entries),
                serial.sparse.map(|r| r.entries)
            );
            assert_eq!(merged.slots, serial.slots);
            assert_eq!(merged.next, serial.next);
        }
    }

    #[test]
    #[should_panic(expected = "mix batch forms")]
    fn concat_rejects_mixed_forms() {
        RowBatch::concat(4, 2, vec![RowBatch::new_sparse(2, 2), RowBatch::new(2, 2)]);
    }
}
