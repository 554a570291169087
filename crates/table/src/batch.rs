//! Arena-staged row batches: the one input every table layout is built
//! from.
//!
//! The DP stages rows into a single contiguous arena: `stage()` hands out
//! a zeroed scratch row at the arena tail, and `commit(v)` keeps it as
//! vertex `v`'s row — an uncommitted row is simply overwritten by the next
//! `stage()`. Construction of the final table then consumes the arena
//! directly (see [`crate::CountTable::from_batch_kind`]), so the hot loop
//! performs **zero** per-row allocations.
//!
//! Two rules make that one path safe for every layout. A batch commits rows
//! in ascending vertex order, which makes the arena identical to the
//! colorset-major layout [`crate::LazyTable`] stores — its
//! `from_batch_kind` is a move, not a copy — and fixes the order in which
//! every layout sums its entries. And only rows with a non-zero entry are
//! committed, so a committed row *is* an active vertex: the dense and lazy
//! layouts mark committed rows active without rescanning them.
//! [`RowBatch::commit`] asserts the first rule, and debug builds the
//! second.
//!
//! On Linux, an arena whose size reaches 32 MiB (`HUGE_ARENA_BYTES`)
//! reserves that capacity once and asks the kernel for transparent huge
//! pages before the first row is written (see `huge_arena`); smaller
//! arenas grow on demand. `concat` knows its exact size; `new` reserves
//! its `n · nc` worst case only where an unused reservation costs nothing
//! but address space (see `reservation_is_free`).

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
    /// Lowest vertex the next commit may name (one past the last
    /// committed vertex).
    next: usize,
}

impl RowBatch {
    /// An empty batch for `n` vertices with `nc`-slot rows. When `n · nc`
    /// slots reach 32 MiB and an unused reservation is free, that upper
    /// bound is reserved up front (see the module docs).
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
            slots: vec![NO_ROW; n],
            committed: 0,
            next: 0,
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

    /// Commits the currently staged row as vertex `v`'s row. The row must
    /// hold a non-zero entry (checked in debug builds).
    ///
    /// # Panics
    /// Panics if `v` is out of range, is not above the last committed
    /// vertex, or nothing was staged since the last commit.
    #[inline]
    pub fn commit(&mut self, v: usize) {
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
            data: huge_arena(total_rows * nc)
                .unwrap_or_else(|| Vec::with_capacity(total_rows * nc)),
            slots: Vec::with_capacity(n),
            committed: 0,
            next: 0,
        };
        for part in parts {
            assert_eq!(part.nc, nc, "band row width mismatch");
            if part.committed > 0 {
                out.next = out.slots.len() + part.next;
            }
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
    }

    #[test]
    #[should_panic]
    fn commit_without_stage_panics() {
        let mut b = RowBatch::new(3, 2);
        b.commit(0);
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
    fn descending_commit_panics() {
        let mut b = RowBatch::new(3, 2);
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
