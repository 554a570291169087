//! The hashed sparse table for high-selectivity templates.
//!
//! §III-C: "key = vid * Nc + I ... we can utilize a very simple hash
//! function of (key mod size)". We size the open-addressing array as a
//! small factor of the number of live entries (the paper's "factor of
//! n * Nc" with the factor chosen by occupancy), probe linearly, and keep a
//! per-vertex activity bitmap so the inner-loop skip check stays O(1).
//!
//! This wins when few (vertex, colorset) pairs are non-zero — e.g. long
//! paths on the PA road network, where Fig. 7 reports up to 90% memory
//! reduction versus the dense layout.
//!
//! The saving holds while the table is built, too. The layout builds from
//! a sparse [`RowBatch`] ([`CountTable::new_batch`]): the DP stages each
//! vertex's row in one reused scratch row and keeps only its non-zero
//! entries, as `(v * Nc + I, count)` records in ascending key order, so no
//! `n * Nc` staging arena is ever allocated. Construction counts the
//! records to size the probe array and inserts them in that order — the
//! order a dense batch's rows would be scanned in — so the slot layout,
//! the probe statistics and every sum are those of a dense build. A dense
//! batch (what the budget-gated [`crate::AnyTable`] stages) is still
//! accepted and scanned row by row.

use crate::access::{recorder_for, AccessRecorder};
use crate::batch::NO_ROW;
use crate::{CountTable, ProbeStats, RowBatch, TableKind, TableStats};
use std::sync::Arc;

const EMPTY: u64 = u64::MAX;

/// Open-addressing hash table keyed by `v * nc + cs`.
#[derive(Debug, Clone)]
pub struct HashCountTable {
    n: usize,
    nc: usize,
    capacity: usize,
    keys: Vec<u64>,
    vals: Vec<f64>,
    active: Vec<bool>,
    live: usize,
    probe: ProbeStats,
    /// Opt-in access telemetry; excluded from `bytes()` accounting.
    access: Option<Arc<AccessRecorder>>,
}

impl HashCountTable {
    #[inline]
    fn slot_of(&self, key: u64) -> Option<usize> {
        let mut i = (key % self.capacity as u64) as usize;
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(i);
            }
            if k == EMPTY {
                return None;
            }
            i += 1;
            if i == self.capacity {
                i = 0;
            }
        }
    }

    /// `slot_of` with the probe-chain length counted, for the telemetry
    /// path only — the untracked hot path keeps the leaner loop above.
    #[inline]
    fn slot_of_counted(&self, key: u64) -> (Option<usize>, u64) {
        let mut i = (key % self.capacity as u64) as usize;
        let mut chain = 1u64;
        loop {
            let k = self.keys[i];
            if k == key {
                return (Some(i), chain);
            }
            if k == EMPTY {
                return (None, chain);
            }
            chain += 1;
            i += 1;
            if i == self.capacity {
                i = 0;
            }
        }
    }

    /// Number of live (non-zero) entries.
    pub fn live_entries(&self) -> usize {
        self.live
    }

    /// Load factor of the probe array.
    pub fn load_factor(&self) -> f64 {
        self.live as f64 / self.capacity as f64
    }

    /// Construction-time probe statistics (collision behavior of the
    /// paper's `key mod size` hash at this occupancy).
    pub fn probe_stats(&self) -> ProbeStats {
        self.probe
    }

    /// Inserts `val` under `key`, counting the probe chain.
    #[inline]
    fn insert(&mut self, key: u64, val: f64) {
        let mut i = (key % self.capacity as u64) as usize;
        let mut chain = 1u64;
        while self.keys[i] != EMPTY {
            debug_assert_ne!(self.keys[i], key, "duplicate key");
            chain += 1;
            i += 1;
            if i == self.capacity {
                i = 0;
            }
        }
        self.keys[i] = key;
        self.vals[i] = val;
        self.probe.inserts += 1;
        self.probe.probes += chain;
        self.probe.max_probe = self.probe.max_probe.max(chain);
    }

    /// [`CountTable::add_row_into`] for an active row, one probe per key
    /// in ascending colorset order, with every probe chain recorded as
    /// [`CountTable::get`] records it.
    fn add_row_probed(&self, v: usize, acc: &mut [f64], rec: &AccessRecorder) {
        for (cs, a) in acc.iter_mut().enumerate() {
            let (slot, chain) = self.slot_of_counted((v * self.nc + cs) as u64);
            rec.note_get(v);
            rec.note_probe(chain);
            if let Some(i) = slot {
                *a += self.vals[i];
            }
        }
    }
}

impl CountTable for HashCountTable {
    fn from_batch_kind(_kind: TableKind, batch: RowBatch) -> Self {
        let n = batch.num_vertices();
        let nc = batch.num_colorsets();
        let live = batch.live_entries();
        // Factor-of-two occupancy, as the paper sizes its table by a factor
        // of the live range; keep a floor to avoid degenerate mod values.
        let capacity = (2 * live).max(16) + 1;
        let mut table = Self {
            n,
            nc,
            capacity,
            keys: vec![EMPTY; capacity],
            vals: vec![0.0; capacity],
            active: vec![false; n],
            live,
            probe: ProbeStats::default(),
            access: recorder_for(n),
        };
        if let Some(records) = &batch.sparse {
            // Committed rows hold a non-zero entry by the staging
            // contract, so they are exactly the active vertices.
            for (active, &slot) in table.active.iter_mut().zip(&batch.slots) {
                *active = slot != NO_ROW;
            }
            for &(key, val) in &records.entries {
                table.insert(key, val);
            }
            return table;
        }
        for v in 0..n {
            let Some(row) = batch.row(v) else { continue };
            for (cs, &val) in row.iter().enumerate() {
                if val == 0.0 {
                    continue;
                }
                table.active[v] = true;
                table.insert((v * nc + cs) as u64, val);
            }
        }
        table
    }

    fn new_batch(n: usize, nc: usize) -> RowBatch {
        RowBatch::new_sparse(n, nc)
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
        if !self.active[v] {
            if let Some(rec) = &self.access {
                rec.note_inactive();
            }
            return 0.0;
        }
        let key = (v * self.nc + cs) as u64;
        if let Some(rec) = &self.access {
            rec.note_get(v);
            let (slot, chain) = self.slot_of_counted(key);
            rec.note_probe(chain);
            return match slot {
                Some(i) => self.vals[i],
                None => 0.0,
            };
        }
        match self.slot_of(key) {
            Some(i) => self.vals[i],
            None => 0.0,
        }
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
    fn row_slice(&self, _v: usize) -> Option<&[f64]> {
        None // no contiguous rows in the hashed layout
    }

    #[inline]
    fn has_row_slices(&self) -> bool {
        false
    }

    /// Row accumulation by one pass over the row's home window. The keys
    /// of row `v` are consecutive (`v*nc .. v*nc+nc`) and `key mod size`
    /// maps them to consecutive home slots, so every one of them lies in
    /// the `nc + max_probe - 1` slots from `(v*nc) mod size` (wrapping
    /// once); a slot whose key `k` has `k - v*nc < nc` is row `v`'s entry
    /// for that colorset. Keys are unique, so each `acc` slot receives at
    /// most one add and the order across slots is free; an absent key adds
    /// nothing, which equals the per-slot default's `+0.0` add on an
    /// accumulator that holds no `-0.0`. With an access recorder attached
    /// the row is probed key by key instead, so the probe telemetry stays
    /// that of `nc` separate [`CountTable::get`] calls.
    fn add_row_into(&self, v: usize, acc: &mut [f64]) {
        debug_assert!(acc.len() <= self.nc, "accumulator wider than a row");
        if !self.active[v] {
            if let Some(rec) = &self.access {
                // The per-slot default would hit the inactive check once
                // per colorset; keep the telemetry identical.
                for _ in 0..acc.len() {
                    rec.note_inactive();
                }
            }
            return;
        }
        if let Some(rec) = &self.access {
            self.add_row_probed(v, acc, rec);
            return;
        }
        let base = (v * self.nc) as u64;
        let width = acc.len() as u64;
        let home = (base % self.capacity as u64) as usize;
        // An active row means at least one insert, so `max_probe >= 1`.
        let len = (self.nc + self.probe.max_probe as usize - 1).min(self.capacity);
        let head = home..(home + len).min(self.capacity);
        let wrapped = 0..len - head.len();
        for range in [head, wrapped] {
            for (&key, &val) in self.keys[range.clone()].iter().zip(&self.vals[range]) {
                let d = key.wrapping_sub(base);
                if d < width {
                    acc[d as usize] += val;
                }
            }
        }
    }

    /// Prefetches the probe window a row's consecutive home slots land in,
    /// so a later [`CountTable::add_row_into`] finds the key and value
    /// lines resident. No-op off x86-64.
    fn prefetch_row_hint(&self, v: usize) {
        #[cfg(target_arch = "x86_64")]
        {
            use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            if !self.active[v] {
                return;
            }
            let home = ((v * self.nc) as u64 % self.capacity as u64) as usize;
            // The row's nc home slots start here; one line of keys and one
            // of values covers the short chains of a half-loaded table.
            // Safety: prefetch is a hint and the indices are in bounds.
            unsafe {
                _mm_prefetch(self.keys.as_ptr().add(home).cast::<i8>(), _MM_HINT_T0);
                _mm_prefetch(self.vals.as_ptr().add(home).cast::<i8>(), _MM_HINT_T0);
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = v;
    }

    fn bytes(&self) -> usize {
        self.keys.capacity() * 8 + self.vals.capacity() * 8 + self.active.capacity()
    }

    fn stats(&self) -> TableStats {
        TableStats {
            allocated_bytes: self.bytes(),
            // The hash layout materializes no rows at all; what it pays for
            // is the probe array, reflected in `allocated_bytes`.
            rows_materialized: self.active.iter().filter(|&&a| a).count(),
            nonzero_rows: self.active.iter().filter(|&&a| a).count(),
            live_entries: self.live,
            probe: Some(self.probe),
            access: self.access.as_ref().map(|rec| rec.snapshot()),
        }
    }

    fn total(&self) -> f64 {
        self.vals.iter().sum()
    }

    fn kind(&self) -> TableKind {
        TableKind::Hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseTable;
    use crate::test_support::{batch_of, check_contract, sample_batch};

    #[test]
    fn satisfies_table_contract() {
        check_contract::<HashCountTable>();
    }

    #[test]
    fn matches_dense_semantics() {
        let hash = HashCountTable::from_batch_kind(TableKind::Hash, sample_batch(57, 11));
        let dense = DenseTable::from_batch_kind(TableKind::Dense, sample_batch(57, 11));
        for v in 0..57 {
            for cs in 0..11 {
                assert_eq!(hash.get(v, cs), dense.get(v, cs), "v={v} cs={cs}");
            }
            assert_eq!(hash.vertex_active(v), dense.vertex_active(v));
        }
        assert!((hash.total() - dense.total()).abs() < 1e-9);
    }

    #[test]
    fn wins_big_on_high_selectivity() {
        // 1% of vertices active, one colorset each: the Fig. 7 regime.
        let n = 2000;
        let nc = 128;
        let rows: Vec<Option<Vec<f64>>> = (0..n)
            .map(|v| {
                (v % 100 == 0).then(|| {
                    let mut r = vec![0.0; nc];
                    r[v % nc] = 1.0;
                    r
                })
            })
            .collect();
        let hash = HashCountTable::from_batch_kind(TableKind::Hash, batch_of(nc, &rows));
        let dense = DenseTable::from_batch_kind(TableKind::Dense, batch_of(nc, &rows));
        assert!(
            hash.bytes() * 10 < dense.bytes(),
            "hash {} vs dense {}",
            hash.bytes(),
            dense.bytes()
        );
        assert_eq!(hash.live_entries(), 20);
        assert!(hash.load_factor() <= 0.5 + 1e-9);
    }

    #[test]
    fn empty_table() {
        let t = HashCountTable::from_batch_kind(TableKind::Hash, RowBatch::new(5, 4));
        assert_eq!(t.live_entries(), 0);
        assert_eq!(t.total(), 0.0);
        for v in 0..5 {
            assert!(!t.vertex_active(v));
            assert_eq!(t.get(v, 3), 0.0);
        }
    }

    #[test]
    fn probes_resolve_collisions() {
        // Capacity is ~2x live; adjacent keys force probe chains. Verify
        // every key still resolves.
        let n = 64;
        let nc = 4;
        let mut batch = RowBatch::new(n, nc);
        for v in 0..n {
            for (cs, x) in batch.stage().iter_mut().enumerate() {
                *x = (v * nc + cs) as f64 + 0.5;
            }
            batch.commit(v);
        }
        let t = HashCountTable::from_batch_kind(TableKind::Hash, batch);
        for v in 0..n {
            for cs in 0..nc {
                assert_eq!(t.get(v, cs), (v * nc + cs) as f64 + 0.5);
            }
        }
    }
}

#[cfg(test)]
mod window_tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::cell::Cell;

    /// Property-test cases of `add_row_into_matches_per_slot_get`.
    const CASES: u32 = 64;

    thread_local! {
        /// Cases run so far on this thread.
        static CASES_RUN: Cell<u32> = const { Cell::new(0) };
        /// Over this thread's cases that built their table with no access
        /// recorder (the window path): `[cases, wrapping window,
        /// window covering the whole table, max_probe >= 8]`.
        static WINDOW_HITS: Cell<[u32; 4]> = const { Cell::new([0; 4]) };
    }

    /// A random `n × nc` batch: about 80% of the vertices stage a row,
    /// each slot live at `density`, and rows with a live slot are
    /// committed. Live values are fractional so a misplaced add shows in
    /// the bits.
    fn random_batch(rng: &mut SmallRng, n: usize, nc: usize, density: f64) -> RowBatch {
        let mut batch = RowBatch::new(n, nc);
        for v in 0..n {
            if !rng.gen_bool(0.8) {
                continue;
            }
            let row = batch.stage();
            for x in row.iter_mut() {
                if rng.gen_bool(density) {
                    *x = rng.gen_range(0.001..4.0);
                }
            }
            if row.iter().any(|&x| x != 0.0) {
                batch.commit(v);
            }
        }
        batch
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(CASES))]

        /// `add_row_into` leaves exactly the bits of `acc[cs] += get(v,
        /// cs)` over every `cs`, at row densities from 0.5% to 60%, into accumulators
        /// starting at +0.0 or at random non-negative values. After the
        /// last case, the recorder-free cases must have run a window that
        /// wraps past the end of the table, one that covers the whole
        /// table, and one over a probe chain of at least 8 — and there
        /// must have been such cases at all: another test in this binary
        /// flips the global tracking flag, and a table built meanwhile
        /// takes the recorded per-key path.
        #[test]
        fn add_row_into_matches_per_slot_get(seed in any::<u64>()) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let n = rng.gen_range(1usize..80);
            let nc = rng.gen_range(1usize..48);
            let density = 0.005 * 120f64.powf(rng.gen_range(0.0..1.0));
            let table =
                HashCountTable::from_batch_kind(TableKind::Hash, random_batch(&mut rng, n, nc, density));
            let prefill = rng.gen_bool(0.5);
            for v in 0..n {
                let start: Vec<f64> = (0..nc)
                    .map(|_| match prefill && rng.gen_bool(0.7) {
                        true => rng.gen_range(0.0..4.0),
                        false => 0.0,
                    })
                    .collect();
                let mut got = start.clone();
                table.add_row_into(v, &mut got);
                let mut want = start;
                for (cs, a) in want.iter_mut().enumerate() {
                    *a += table.get(v, cs);
                }
                let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&got), bits(&want), "v={} n={} nc={}", v, n, nc);
            }
            if table.access.is_none() {
                let cap = table.capacity;
                let max_probe = table.probe.max_probe as usize;
                let len = (nc + max_probe).saturating_sub(1).min(cap);
                let wraps = (0..n).any(|v| table.active[v] && (v * nc) % cap + len > cap);
                let whole = table.live > 0 && nc + max_probe > cap;
                WINDOW_HITS.with(|h| {
                    let mut hits = h.get();
                    hits[0] += 1;
                    hits[1] += wraps as u32;
                    hits[2] += whole as u32;
                    hits[3] += (max_probe >= 8) as u32;
                    h.set(hits);
                });
            }
            let run = CASES_RUN.with(|c| {
                c.set(c.get() + 1);
                c.get()
            });
            if run == CASES {
                let [cases, wraps, whole, long] = WINDOW_HITS.with(|h| h.get());
                prop_assert!(cases > 0, "every case ran with a recorder attached");
                prop_assert!(wraps > 0, "no window wrapped past the end of the table");
                prop_assert!(whole > 0, "no window covered the whole table");
                prop_assert!(long > 0, "no probe chain reached 8");
            }
        }
    }
}

#[cfg(test)]
mod sparse_tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Per vertex, the rows staged for it in order: every row but the last
    /// is discarded, and the last is committed when it holds a live slot.
    type Plan = Vec<Vec<Vec<f64>>>;

    /// A random plan over `n` vertices: about 80% of the vertices stage a
    /// row, a fifth of those stage a discarded row first, and each slot is
    /// live at `density` with a fractional value, so a misplaced or stale
    /// entry shows in the bits.
    fn random_plan(rng: &mut SmallRng, n: usize, nc: usize, density: f64) -> Plan {
        let random_row = |rng: &mut SmallRng| -> Vec<f64> {
            (0..nc)
                .map(|_| match rng.gen_bool(density) {
                    true => rng.gen_range(0.001..4.0),
                    false => 0.0,
                })
                .collect()
        };
        (0..n)
            .map(|_| match (rng.gen_bool(0.8), rng.gen_bool(0.2)) {
                (false, _) => vec![],
                (true, false) => vec![random_row(rng)],
                (true, true) => vec![random_row(rng), random_row(rng)],
            })
            .collect()
    }

    /// Stages `plan[first..]` into `batch`, one vertex per local id,
    /// writing only each row's live slots so a stale discarded value
    /// would survive into the committed row.
    fn stage_plan(batch: &mut RowBatch, plan: &[Vec<Vec<f64>>], first: usize) {
        for (local, rows) in plan[first..first + batch.num_vertices()].iter().enumerate() {
            for (i, row) in rows.iter().enumerate() {
                let staged = batch.stage();
                for (d, &x) in staged.iter_mut().zip(row) {
                    if x != 0.0 {
                        *d = x;
                    }
                }
                if i + 1 == rows.len() && row.iter().any(|&x| x != 0.0) {
                    batch.commit(local);
                }
            }
        }
    }

    /// Every field that fixes a table's bits, memory and probe telemetry.
    fn fingerprint(
        t: &HashCountTable,
    ) -> (Vec<u64>, Vec<u64>, Vec<bool>, ProbeStats, usize, usize) {
        let vals = t.vals.iter().map(|x| x.to_bits()).collect();
        (
            t.keys.clone(),
            vals,
            t.active.clone(),
            t.probe,
            t.bytes(),
            t.live,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A table built from a sparse batch, serially or as the
        /// concatenation of 3–6 bands, is the one built from a dense batch
        /// of the same rows: same keys in the same slots, same value bits,
        /// activity bitmap, probe statistics and bytes. Row densities run
        /// from 0.5% to 60%, and some rows are staged and discarded.
        #[test]
        fn sparse_batch_builds_the_dense_batch_table(seed in any::<u64>()) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let n = rng.gen_range(1usize..200);
            let nc = rng.gen_range(1usize..64);
            let density = 0.005 * 120f64.powf(rng.gen_range(0.0..1.0));
            let plan = random_plan(&mut rng, n, nc, density);
            let build = |mut batch: RowBatch| {
                stage_plan(&mut batch, &plan, 0);
                HashCountTable::from_batch_kind(TableKind::Hash, batch)
            };
            let dense = fingerprint(&build(RowBatch::new(n, nc)));
            prop_assert_eq!(&fingerprint(&build(HashCountTable::new_batch(n, nc))), &dense);
            let mut cuts: Vec<usize> = (0..rng.gen_range(2usize..6)).map(|_| rng.gen_range(0..n + 1)).collect();
            cuts.push(0);
            cuts.push(n);
            cuts.sort_unstable();
            let bands: Vec<RowBatch> = cuts
                .windows(2)
                .map(|w| {
                    let mut band = RowBatch::new_sparse(w[1] - w[0], nc);
                    stage_plan(&mut band, &plan, w[0]);
                    band
                })
                .collect();
            prop_assert!(bands.len() >= 3);
            let merged = RowBatch::concat(n, nc, bands);
            let banded = HashCountTable::from_batch_kind(TableKind::Hash, merged);
            prop_assert_eq!(&fingerprint(&banded), &dense);
        }
    }
}

#[cfg(test)]
mod adversarial_tests {
    use super::*;

    /// Keys that all collide modulo a small capacity still resolve.
    #[test]
    fn dense_cluster_of_keys_probes_through() {
        // One vertex, many colorsets: keys 0..nc are consecutive — the
        // worst case for linear probing at 50% load.
        let nc = 512;
        let mut batch = RowBatch::new(1, nc);
        for (i, x) in batch.stage().iter_mut().enumerate() {
            *x = (i + 1) as f64;
        }
        batch.commit(0);
        let t = HashCountTable::from_batch_kind(TableKind::Hash, batch);
        for cs in 0..nc {
            assert_eq!(t.get(0, cs), (cs + 1) as f64);
        }
        assert_eq!(t.live_entries(), nc);
    }

    /// Sparse huge-key space: vertex ids near u32 range keep keys in u64.
    #[test]
    fn large_vertex_ids_do_not_overflow() {
        let n = 3_000_000;
        let nc = 924; // C(12, 6)
        let mut batch = RowBatch::new(n, nc);
        batch.stage()[nc - 1] = 42.0;
        batch.commit(n - 1);
        let t = HashCountTable::from_batch_kind(TableKind::Hash, batch);
        assert_eq!(t.get(n - 1, nc - 1), 42.0);
        assert_eq!(t.get(n - 2, nc - 1), 0.0);
        assert_eq!(t.live_entries(), 1);
    }

    #[test]
    fn totals_are_stable_under_probe_order() {
        let build = || {
            let batch = crate::test_support::sample_batch(101, 13);
            HashCountTable::from_batch_kind(TableKind::Hash, batch)
        };
        let (t1, t2) = (build(), build());
        assert_eq!(t1.total(), t2.total());
        assert_eq!(t1.live_entries(), t2.live_entries());
    }
}
