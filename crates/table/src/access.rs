//! Opt-in access-pattern analytics for the table layouts.
//!
//! The layout decision (DESIGN.md §14) should be made from measured
//! telemetry: how often rows are touched, how long hash probe chains run
//! at lookup time, and whether the DP walks a table sequentially (cache
//! friendly) or scatters across it. Each layout owns an optional
//! [`AccessRecorder`]; when the process-wide tracking flag is off (the
//! default) the recorder is never allocated and every read path pays one
//! `Option` branch. Recording uses relaxed atomics only — it observes,
//! never participates, so counts stay bitwise identical with tracking on
//! or off.
//!
//! Recorder storage is deliberately *excluded* from [`bytes`] accounting:
//! `projected_bytes` must keep matching the built table exactly, and the
//! Figs. 6–7 memory comparisons measure the layout, not the telemetry.
//!
//! [`bytes`]: crate::CountTable::bytes

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Number of buckets in the touch/probe histograms.
pub const ACCESS_BUCKETS: usize = 16;

/// Process-wide switch: when set, every table built afterwards carries an
/// [`AccessRecorder`].
static ACCESS_TRACKING: AtomicBool = AtomicBool::new(false);

/// Enables or disables access tracking for tables built *after* this call.
/// Existing tables keep (or keep lacking) their recorders.
pub fn set_access_tracking(on: bool) {
    ACCESS_TRACKING.store(on, Ordering::Relaxed);
}

/// Whether tables built right now would carry a recorder.
pub fn access_tracking_enabled() -> bool {
    ACCESS_TRACKING.load(Ordering::Relaxed)
}

/// Returns a recorder for a table of `n` vertices when tracking is on.
pub(crate) fn recorder_for(n: usize) -> Option<Arc<AccessRecorder>> {
    if access_tracking_enabled() {
        Some(Arc::new(AccessRecorder::new(n)))
    } else {
        None
    }
}

/// Relaxed-atomic access counters owned by one table instance.
///
/// All methods are safe to call concurrently from the parallel DP; the
/// counters are monotone and order-insensitive.
#[derive(Debug)]
pub struct AccessRecorder {
    gets: AtomicU64,
    inactive_skips: AtomicU64,
    row_reads: AtomicU64,
    sequential: AtomicU64,
    scattered: AtomicU64,
    last_vertex: AtomicU64,
    probe_hist: [AtomicU64; ACCESS_BUCKETS],
    touch: Box<[AtomicU32]>,
}

const NO_VERTEX: u64 = u64::MAX;

impl AccessRecorder {
    fn new(n: usize) -> Self {
        let mut touch = Vec::with_capacity(n);
        touch.resize_with(n, || AtomicU32::new(0));
        Self {
            gets: AtomicU64::new(0),
            inactive_skips: AtomicU64::new(0),
            row_reads: AtomicU64::new(0),
            sequential: AtomicU64::new(0),
            scattered: AtomicU64::new(0),
            last_vertex: AtomicU64::new(NO_VERTEX),
            probe_hist: [const { AtomicU64::new(0) }; ACCESS_BUCKETS],
            touch: touch.into_boxed_slice(),
        }
    }

    #[inline]
    fn note_stride(&self, v: usize) {
        let prev = self.last_vertex.swap(v as u64, Ordering::Relaxed);
        let seq = v as u64 == prev || (prev != NO_VERTEX && v as u64 == prev + 1);
        if seq {
            self.sequential.fetch_add(1, Ordering::Relaxed);
        } else {
            self.scattered.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// One point lookup of vertex `v`.
    #[inline]
    pub(crate) fn note_get(&self, v: usize) {
        self.gets.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = self.touch.get(v) {
            slot.fetch_add(1, Ordering::Relaxed);
        }
        self.note_stride(v);
    }

    /// An activity check (or hashed lookup) that found the vertex inactive.
    #[inline]
    pub(crate) fn note_inactive(&self) {
        self.inactive_skips.fetch_add(1, Ordering::Relaxed);
    }

    /// One whole-row read of vertex `v`.
    #[inline]
    pub(crate) fn note_row_read(&self, v: usize) {
        self.row_reads.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = self.touch.get(v) {
            slot.fetch_add(1, Ordering::Relaxed);
        }
        self.note_stride(v);
    }

    /// A hashed lookup that walked a probe chain of `chain` slots.
    #[inline]
    pub(crate) fn note_probe(&self, chain: u64) {
        let bucket = (chain.saturating_sub(1) as usize).min(ACCESS_BUCKETS - 1);
        self.probe_hist[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time snapshot of every counter.
    pub fn snapshot(&self) -> AccessSnapshot {
        let mut touch_hist = [0u64; ACCESS_BUCKETS];
        let mut touched_rows = 0u64;
        for slot in self.touch.iter() {
            let c = slot.load(Ordering::Relaxed);
            if c > 0 {
                touched_rows += 1;
                // log2 buckets: 1, 2-3, 4-7, ... accesses per row.
                let bucket = (u32::BITS - 1 - c.leading_zeros()) as usize;
                touch_hist[bucket.min(ACCESS_BUCKETS - 1)] += 1;
            }
        }
        let mut probe_hist = [0u64; ACCESS_BUCKETS];
        for (dst, src) in probe_hist.iter_mut().zip(self.probe_hist.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        AccessSnapshot {
            gets: self.gets.load(Ordering::Relaxed),
            inactive_skips: self.inactive_skips.load(Ordering::Relaxed),
            row_reads: self.row_reads.load(Ordering::Relaxed),
            sequential: self.sequential.load(Ordering::Relaxed),
            scattered: self.scattered.load(Ordering::Relaxed),
            touched_rows,
            touch_hist,
            probe_hist,
        }
    }
}

/// Frozen view of a recorder, carried in [`TableStats::access`].
///
/// [`TableStats::access`]: crate::TableStats::access
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessSnapshot {
    /// Point lookups served ([`CountTable::get`] on an active vertex for
    /// the hashed layout; every `get` for dense/lazy).
    ///
    /// [`CountTable::get`]: crate::CountTable::get
    pub gets: u64,
    /// Activity checks (and hashed lookups) that found the vertex inactive
    /// — the paper's O(1) skip saving, measured.
    pub inactive_skips: u64,
    /// Whole-row reads served through `row_slice`.
    pub row_reads: u64,
    /// Accesses whose vertex equaled or directly followed the previous one.
    pub sequential: u64,
    /// Accesses that jumped elsewhere in the table.
    pub scattered: u64,
    /// Distinct rows touched at least once.
    pub touched_rows: u64,
    /// Histogram of per-row touch counts, log2 buckets (`[i]` counts rows
    /// touched `2^i ..= 2^(i+1)-1` times; the last bucket absorbs the tail).
    pub touch_hist: [u64; ACCESS_BUCKETS],
    /// Histogram of lookup-time probe-chain lengths (hashed layout only;
    /// `[i]` counts lookups that inspected `i + 1` slots, last bucket
    /// absorbs the tail).
    pub probe_hist: [u64; ACCESS_BUCKETS],
}

impl AccessSnapshot {
    /// Fraction of stride-classified accesses that were sequential
    /// (`None` when nothing was recorded).
    pub fn sequential_ratio(&self) -> Option<f64> {
        let total = self.sequential + self.scattered;
        if total == 0 {
            None
        } else {
            Some(self.sequential as f64 / total as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::sample_batch;
    use crate::{AnyTable, CountTable, TableKind};

    /// One test owns the global flag end to end so parallel test threads
    /// in this binary never observe a half-configured state they assert on.
    #[test]
    fn recorders_observe_all_layouts() {
        set_access_tracking(true);
        let (n, nc) = (30, 6);
        for kind in TableKind::all() {
            let t = AnyTable::from_batch_kind(kind, sample_batch(n, nc));
            // Sequential sweep, then a scattered revisit.
            for v in 0..n {
                let _ = t.vertex_active(v);
                let _ = t.get(v, 0);
                let _ = t.row_slice(v);
            }
            let _ = t.get(0, 1);
            let _ = t.get(n - 1, 1);
            let s = t.stats().access.expect("tracking is on");
            assert!(s.gets > 0, "{kind:?}: gets {}", s.gets);
            assert!(
                s.gets + s.inactive_skips >= n as u64,
                "{kind:?}: every vertex was visited"
            );
            assert!(s.touched_rows > 0, "{kind:?}");
            assert!(s.sequential > 0, "{kind:?}");
            assert!(s.scattered > 0, "{kind:?}");
            assert!(s.inactive_skips > 0, "{kind:?}: sample_batch has gaps");
            let hist_rows: u64 = s.touch_hist.iter().sum();
            assert_eq!(hist_rows, s.touched_rows, "{kind:?}");
            if kind == TableKind::Hash {
                assert!(s.probe_hist.iter().sum::<u64>() > 0);
            } else {
                assert_eq!(s.probe_hist.iter().sum::<u64>(), 0, "{kind:?}");
            }
        }
        set_access_tracking(false);
        let t = AnyTable::from_batch_kind(TableKind::Lazy, sample_batch(n, nc));
        assert!(t.stats().access.is_none(), "built after disabling");
    }

    #[test]
    fn snapshot_ratio_handles_empty() {
        assert_eq!(AccessSnapshot::default().sequential_ratio(), None);
        let s = AccessSnapshot {
            sequential: 3,
            scattered: 1,
            ..AccessSnapshot::default()
        };
        assert_eq!(s.sequential_ratio(), Some(0.75));
    }
}
