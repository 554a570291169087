//! The cut-node DP kernel: one colorset-major batched pass per cut
//! node, shared by every entry point. See DESIGN.md §15 for the design.
//!
//! It evaluates the factored recurrence
//!
//! ```text
//! row[C] = Σ_{Ca ⊎ Cp = C} act(v, Ca) · (Σ_{u ∈ N(v)} pas(u, Cp))
//! ```
//!
//! around contiguous memory:
//!
//! 1. **Gather** — the passive child's neighbor rows are collected as
//!    contiguous slices (arena rows of the reworked layouts) and
//!    accumulated block-by-block in colorset-major order,
//! 2. **MAC** — the combine runs position-major over
//!    [`fascia_combin::PositionSplitTable`] lanes: a flat
//!    multiply-accumulate `row[i] += act[ai[i]] * pas[pi[i]]` over whole
//!    colorset ranges, run once per block of [`LANES`] vertices:
//!    `out[i][l] += act[ai[i]][l] * pas[pi[i]][l]`, reading each index
//!    lane once per block. A node whose active child is the bare root
//!    vertex looks its one live set up per vertex instead,
//! 3. **Stage** — rows are staged into one [`RowBatch`] (zero per-row
//!    allocations), in the form the table layout builds from: a dense
//!    arena, or the hashed layout's sparse records. Table construction
//!    consumes it directly.
//!
//! `N(v)` comes from a [`Neighbors`] source: the undirected [`Graph`], or
//! a [`DiGraph`]'s out- or in-arcs when the directed driver picks the
//! orientation of a cut edge. The source is a type parameter, so each one
//! gets its own monomorphized hot loop.
//!
//! # Bitwise-equality contract
//!
//! For every `(vertex, colorset)` slot the kernel performs the *same
//! multiplications and additions in the same order* as the vertex-major
//! scalar recurrence it replaced (kept as a test-only reference below); it
//! only removes the `a_val != 0.0` skip (adding `+0.0` is a bitwise no-op
//! on the non-negative counts the DP produces) and hoists loop structure;
//! a blocked node runs [`LANES`] vertices' unchanged sequences side by
//! side, one per lane.
//! A node-level property test here checks that against random child
//! tables, and the entry-point golden (`tests/kernel_equivalence.rs`)
//! pins the end-to-end bits.

use crate::engine::{DpContext, Stored};
use crate::metrics::CutMetrics;
use crate::resilience::{CancelToken, POLL_INTERVAL};
use fascia_combin::PositionSplitTable;
use fascia_graph::digraph::DiGraph;
use fascia_graph::Graph;
use fascia_table::{CountTable, RowBatch};
use fascia_template::partition::SubNode;
use rayon::prelude::*;

/// Where a cut node's neighbor sum walks: the vertices `v`'s sum visits,
/// in ascending order.
pub(crate) trait Neighbors: Sync {
    fn neighbors(&self, v: usize) -> &[u32];
}

impl Neighbors for Graph {
    #[inline]
    fn neighbors(&self, v: usize) -> &[u32] {
        Graph::neighbors(self, v)
    }
}

/// A directed graph's out-arcs: the template arc points from the
/// subtemplate root to the passive root.
pub(crate) struct OutArcs<'a>(pub &'a DiGraph);

impl Neighbors for OutArcs<'_> {
    #[inline]
    fn neighbors(&self, v: usize) -> &[u32] {
        self.0.out_neighbors(v)
    }
}

/// A directed graph's in-arcs: the template arc points into the
/// subtemplate root.
pub(crate) struct InArcs<'a>(pub &'a DiGraph);

impl Neighbors for InArcs<'_> {
    #[inline]
    fn neighbors(&self, v: usize) -> &[u32] {
        self.0.in_neighbors(v)
    }
}

/// Everything one cut node's kernel pass reads besides the neighbor
/// source and the output batch.
pub(crate) struct CutJob<'a, 't, T: CountTable> {
    /// Graph vertex labels of a labeled run.
    pub labels: Option<&'a [u8]>,
    pub node: &'a SubNode,
    pub a_node: &'a SubNode,
    pub p_node: &'a SubNode,
    /// Active child (holds the subtemplate root).
    pub act: &'t Stored<T>,
    /// Passive child (summed over the root's neighbors).
    pub pas: &'t Stored<T>,
    pub ctx: &'a DpContext,
    pub coloring: &'a [u8],
    /// Split the vertex range across the rayon pool.
    pub inner_parallel: bool,
    pub cancel: Option<&'a CancelToken>,
    pub cm: Option<&'a CutMetrics>,
}

/// Colorset-chunk width (f64 slots) of the blocked neighbor accumulation:
/// 4 KiB per chunk keeps the accumulator resident in L1 while neighbor
/// rows stream through.
const COL_BLOCK: usize = 512;

/// Requests every cache line of a gathered row ahead of the accumulation
/// pass. The neighbor gather is the latency wall of the whole DP: rows
/// land at random arena offsets, so each visit is a likely cache miss.
/// Splitting gather from accumulate means we know all of a vertex's row
/// addresses up front — prefetching them back-to-back overlaps the misses
/// instead of paying them serially inside the add loop. No-op off x86-64.
#[inline(always)]
fn prefetch_row(r: &[f64]) {
    #[cfg(target_arch = "x86_64")]
    {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let ptr = r.as_ptr().cast::<i8>();
        let bytes = std::mem::size_of_val(r);
        let mut off = 0;
        while off < bytes {
            // Safety: prefetch is a hint; it never faults and `ptr + off`
            // stays inside the row slice.
            unsafe { _mm_prefetch(ptr.add(off), _MM_HINT_T0) };
            off += 64;
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = r;
}

/// Vertices per block of the vertex-blocked MAC: one 64-byte line of
/// `f64` per color set, so the innermost multiply-add is a fixed-width,
/// unit-stride loop that compiles to whole-vector operations.
const LANES: usize = 8;

/// Block buffers of the vertex-blocked MAC, laid out `[colorset][lane]`:
/// lane `l` belongs to the block's `l`-th vertex.
#[derive(Default)]
struct Block {
    /// Active rows (`nc_a` sets).
    act: Vec<[f64; LANES]>,
    /// Neighbor sums (`nc_p` sets).
    pas: Vec<[f64; LANES]>,
    /// Combined rows (`nc_h` sets).
    out: Vec<[f64; LANES]>,
    /// Batch slot of each filled lane, in vertex order.
    slots: [usize; LANES],
    /// Filled lanes.
    len: usize,
}

impl Block {
    fn new(nc_a: usize, nc_p: usize, nc_h: usize) -> Self {
        Self {
            act: vec![[0.0; LANES]; nc_a],
            pas: vec![[0.0; LANES]; nc_p],
            out: vec![[0.0; LANES]; nc_h],
            slots: [0; LANES],
            len: 0,
        }
    }

    /// Adds one vertex's active row and neighbor sum as the next lane.
    #[inline]
    fn push(&mut self, act: &[f64], pas: &[f64], slot: usize) {
        let l = self.len;
        for (d, &x) in self.act.iter_mut().zip(act) {
            d[l] = x;
        }
        for (d, &x) in self.pas.iter_mut().zip(pas) {
            d[l] = x;
        }
        self.slots[l] = slot;
        self.len += 1;
    }

    /// Runs the position-major MAC once for every filled lane, then stages
    /// and commits their rows in lane (= vertex) order. Each lane's slot
    /// starts at +0.0 and adds its products in ascending `j`, exactly as
    /// the scalar reference's split walk; lanes past `len` hold stale
    /// values whose results are never read.
    fn flush(&mut self, pos: &PositionSplitTable, batch: &mut RowBatch) {
        if self.len == 0 {
            return;
        }
        self.out.fill([0.0; LANES]);
        for j in 0..pos.splits_per_set() {
            let (ai, pi) = pos.lane(j);
            for ((o, &a_idx), &p_idx) in self.out.iter_mut().zip(ai).zip(pi) {
                let a = &self.act[a_idx as usize];
                let p = &self.pas[p_idx as usize];
                for ((o, a), p) in o.iter_mut().zip(a).zip(p) {
                    *o += a * p;
                }
            }
        }
        for (l, &slot) in self.slots[..self.len].iter().enumerate() {
            let row = batch.stage();
            for (d, o) in row.iter_mut().zip(&self.out) {
                *d = o[l];
            }
            if row.iter().any(|&x| x != 0.0) {
                batch.commit(slot);
            }
        }
        self.len = 0;
    }
}

/// Where a vertex's active row lives once the gather has run.
#[derive(Clone, Copy)]
enum ActRow<'t> {
    /// The active child is the bare root vertex (removal-table combine).
    Root,
    /// A contiguous row of the active child table.
    Slice(&'t [f64]),
    /// Materialized into [`Scratch::act_buf`] (hash layout).
    Buf,
}

/// Per-worker scratch of the vectorized kernel, reused across vertices so
/// the hot loop never allocates.
#[derive(Default)]
struct Scratch<'t> {
    /// Passive-row accumulator (`nc_p` slots).
    pas_acc: Vec<f64>,
    /// Materialized active row when the child table has no contiguous
    /// rows (hash layout).
    act_buf: Vec<f64>,
    /// Gathered neighbor-row slices, in neighbor order.
    nbr_rows: Vec<&'t [f64]>,
    /// Active neighbors awaiting a batched probe (hash layout only).
    probe_vs: Vec<u32>,
    /// Integer color-occurrence counts for single-vertex passive children.
    cnt_buf: Vec<u32>,
    /// Pending vertices of the vertex-blocked MAC (empty on the
    /// removal path).
    block: Block,
    /// Local cut-counter tallies (flushed once per band).
    tally: Tally,
}

/// Per-worker tallies of the cut counters, flushed to the shared atomic
/// [`CutMetrics`] once per band instead of once per vertex — the relaxed
/// `fetch_add`s are measurable at ~100ns/vertex loop cost. Totals (and
/// their per-thread attribution) are identical to per-vertex counting.
#[derive(Default)]
struct Tally {
    roots_visited: u64,
    roots_skipped: u64,
    neighbors_visited: u64,
    neighbors_skipped: u64,
}

impl Tally {
    fn flush(&self, cm: Option<&CutMetrics>) {
        let Some(c) = cm else { return };
        if self.roots_visited != 0 {
            c.roots_visited.add(self.roots_visited);
        }
        if self.roots_skipped != 0 {
            c.roots_skipped.add(self.roots_skipped);
        }
        if self.neighbors_visited != 0 {
            c.neighbors_visited.add(self.neighbors_visited);
        }
        if self.neighbors_skipped != 0 {
            c.neighbors_skipped.add(self.neighbors_skipped);
        }
    }
}

/// Computes one cut node's rows for every vertex into the empty `batch`,
/// banded across the pool when `job.inner_parallel`.
pub(crate) fn cut_batch<'t, N: Neighbors, T: CountTable>(
    src: &N,
    job: &CutJob<'_, 't, T>,
    batch: &mut RowBatch,
) {
    let CutJob {
        labels,
        node,
        a_node,
        p_node,
        act,
        pas,
        ctx,
        coloring,
        inner_parallel,
        cancel,
        cm,
    } = *job;
    let h = node.size as usize;
    let a = a_node.size as usize;
    let p = p_node.size as usize;
    let nc_h = ctx.nc[h];
    let nc_p = ctx.nc[p];
    let nc_a = ctx.nc[a];
    let k = ctx.k;
    // Kernel scratch shared read-only by every worker, rebuilt per call
    // like the per-worker buffers rather than kept in the context.
    let pairs = (a == 1).then(|| removal_pairs(&ctx.removals[&node.size], k));
    let pos = if a > 1 {
        Some(&ctx.pos_splits[&(node.size, a_node.size)])
    } else {
        None
    };

    // One vertex's activity check and neighbor gather: fills
    // `scratch.pas_acc` and says where the active row is, or `None` when
    // the vertex gets no row.
    let gather = |scratch: &mut Scratch<'t>, v: usize| -> Option<ActRow<'t>> {
        // Cooperative cancellation poll (see `engine::triangle_batch`); a
        // bailed-out kernel leaves a truncated batch the caller discards.
        if v & (POLL_INTERVAL - 1) == 0 && cancel.is_some_and(|c| c.is_cancelled()) {
            return None;
        }
        // Split the scratch into disjoint field borrows so the active
        // buffer can be filled alongside the accumulator.
        let Scratch {
            pas_acc,
            act_buf,
            nbr_rows,
            probe_vs,
            cnt_buf,
            tally,
            ..
        } = scratch;
        // Active availability at v — the paper's "initialized" check.
        let act_row = match act {
            Stored::Single { label } => {
                if let (Some(l), Some(gl)) = (label, labels) {
                    if gl[v] != *l {
                        tally.roots_skipped += 1;
                        return None;
                    }
                }
                ActRow::Root
            }
            Stored::Table(tb) => {
                if !tb.vertex_active(v) {
                    tally.roots_skipped += 1;
                    return None;
                }
                match tb.row_slice(v) {
                    Some(s) => ActRow::Slice(s),
                    None => {
                        // Hash layout: materialize the active row once with a
                        // batched probe (nc_a slots, one hash) instead of
                        // probing inside the MAC (nc_h · C(h,a) probes in
                        // the scalar reference).
                        act_buf.clear();
                        act_buf.resize(nc_a, 0.0);
                        tb.add_row_into(v, act_buf);
                        ActRow::Buf
                    }
                }
            }
        };
        tally.roots_visited += 1;

        // Accumulate passive rows over the neighborhood. Slice-backed
        // rows are gathered first and added in colorset-major blocks;
        // a child table either has slices for every active vertex
        // (dense/lazy arenas) or for none (hash), so per-slot addition
        // order stays exactly the scalar reference's neighbor order.
        pas_acc.clear();
        pas_acc.resize(nc_p, 0.0);
        let mut nbr_visited = 0u64;
        let mut nbr_skipped = 0u64;
        match pas {
            Stored::Single { label } => {
                // Singleton color sets rank as their color value, and every
                // neighbor contributes exactly +1.0 — so count occurrences
                // in integers (1-cycle adds, no FP dependency chains) and
                // convert once. Counts are small exact integers, so the
                // converted value is bitwise identical to summed 1.0s.
                cnt_buf.clear();
                cnt_buf.resize(nc_p, 0);
                for &u in src.neighbors(v) {
                    let u = u as usize;
                    if let (Some(l), Some(gl)) = (label, labels) {
                        if gl[u] != *l {
                            nbr_skipped += 1;
                            continue;
                        }
                    }
                    cnt_buf[coloring[u] as usize] += 1;
                    nbr_visited += 1;
                }
                for (a, &c) in pas_acc.iter_mut().zip(cnt_buf.iter()) {
                    *a = c as f64;
                }
            }
            Stored::Table(tb) if tb.has_row_slices() => {
                // Slice-backed layouts (dense/lazy): one probe serves as
                // both the activity check and the row read, and the
                // prefetch starts each row's lines loading while the rest
                // of the gather runs. Addition order (below) is exactly
                // the scalar reference's neighbor order.
                nbr_rows.clear();
                for &u in src.neighbors(v) {
                    match tb.row_slice(u as usize) {
                        Some(s) => {
                            prefetch_row(s);
                            nbr_rows.push(s);
                            nbr_visited += 1;
                        }
                        None => nbr_skipped += 1,
                    }
                }
                if nc_p <= COL_BLOCK {
                    // Common case: the whole row is one block — skip the
                    // chunk bookkeeping. Per-slot addition order is the
                    // gathered neighbor order either way.
                    for r in nbr_rows.iter() {
                        for (d, s) in pas_acc.iter_mut().zip(*r) {
                            *d += *s;
                        }
                    }
                } else {
                    let mut c0 = 0;
                    while c0 < nc_p {
                        let c1 = (c0 + COL_BLOCK).min(nc_p);
                        for r in nbr_rows.iter() {
                            for (d, s) in pas_acc[c0..c1].iter_mut().zip(&r[c0..c1]) {
                                *d += *s;
                            }
                        }
                        c0 = c1;
                    }
                }
            }
            Stored::Table(tb) => {
                // Hash layout: no contiguous rows to gather. Collect the
                // active neighbors first — the hint starts each probe
                // window loading — then batch-probe in neighbor order.
                probe_vs.clear();
                for &u in src.neighbors(v) {
                    let u = u as usize;
                    if tb.vertex_active(u) {
                        tb.prefetch_row_hint(u);
                        probe_vs.push(u as u32);
                        nbr_visited += 1;
                    } else {
                        nbr_skipped += 1;
                    }
                }
                for &u in probe_vs.iter() {
                    tb.add_row_into(u as usize, pas_acc);
                }
            }
        }
        tally.neighbors_visited += nbr_visited;
        tally.neighbors_skipped += nbr_skipped;
        (nbr_visited != 0).then_some(act_row)
    };

    // The combine path is chosen once per node: each closure below gets
    // its own monomorphized pass loop. `v` is the global vertex id,
    // `slot_v` its id within `batch` (differs only for the banded parallel
    // path).
    match (pos, &pairs) {
        (Some(pos), _) => {
            // Vertex-blocked: queue up to LANES vertices, then run the
            // position-major MAC once for the whole block (DESIGN.md §15).
            let blocked = |scratch: &mut Scratch<'t>, batch: &mut RowBatch, v: usize, slot_v| {
                let act_row = match gather(scratch, v) {
                    None => return,
                    Some(ActRow::Slice(s)) => s,
                    Some(ActRow::Buf) => &scratch.act_buf[..],
                    Some(ActRow::Root) => unreachable!("larger actives are tables"),
                };
                scratch.block.push(act_row, &scratch.pas_acc, slot_v);
                if scratch.block.len == LANES {
                    scratch.block.flush(pos, batch);
                }
            };
            run_pass(
                batch,
                inner_parallel,
                || Scratch {
                    block: Block::new(nc_a, nc_p, nc_h),
                    ..Scratch::default()
                },
                blocked,
                |scratch: &mut Scratch<'t>, batch: &mut RowBatch| {
                    scratch.block.flush(pos, batch);
                    scratch.tally.flush(cm);
                },
            );
        }
        (None, Some(pairs)) => {
            // Active is the bare root vertex: the only live color set for
            // it is {color(v)}, so row[C] = pas_acc[C \ {color(v)}] for the
            // sets C holding color(v) — walked from that color's pair list
            // into a staged arena row (zeroed by `stage`).
            let removal = |scratch: &mut Scratch<'t>, batch: &mut RowBatch, v: usize, slot_v| {
                if gather(scratch, v).is_none() {
                    return;
                }
                let row = batch.stage();
                let mut nonzero = false;
                for &(i, j) in &pairs[coloring[v] as usize] {
                    let val = scratch.pas_acc[j as usize];
                    if val != 0.0 {
                        row[i as usize] = val;
                        nonzero = true;
                    }
                }
                if nonzero {
                    batch.commit(slot_v);
                }
            };
            run_pass(
                batch,
                inner_parallel,
                Scratch::default,
                removal,
                |scratch: &mut Scratch<'t>, _: &mut RowBatch| scratch.tally.flush(cm),
            );
        }
        (None, None) => unreachable!("active-single uses removals; larger actives use splits"),
    }
}

/// The color-major view of a removal table `rem` over `k` colors: list
/// `c` holds the pairs `(I, J)` with `rem[I·k + c] = J ≥ 0`, i.e. every
/// set `I` containing `c` with the index `J` of `I \ {c}`. Adding `c` to
/// the sets that lack it preserves colex order, so both columns ascend;
/// each list has `C(k-1, h-1)` entries. Built in one pass over `rem`.
pub(crate) fn removal_pairs(rem: &[i32], k: usize) -> Vec<Vec<(u32, u32)>> {
    let mut pairs = vec![Vec::new(); k];
    for (i, set) in rem.chunks_exact(k).enumerate() {
        for (list, &j) in pairs.iter_mut().zip(set) {
            if j >= 0 {
                list.push((i as u32, j as u32));
            }
        }
    }
    pairs
}

/// Runs one row producer over every vertex of the empty `batch`, banded
/// across the pool when `inner_parallel` into band batches of `batch`'s
/// form ([`RowBatch::empty_like`]). Each worker builds its scratch
/// with `new_scratch`, calls `compute(scratch, batch, v, slot_v)` per
/// vertex in ascending order (`slot_v` is `v`'s id within the batch it
/// fills) and `finish` once after its last vertex.
pub(crate) fn run_pass<S, N, C, F>(
    batch: &mut RowBatch,
    inner_parallel: bool,
    new_scratch: N,
    compute: C,
    finish: F,
) where
    N: Fn() -> S + Sync,
    C: Fn(&mut S, &mut RowBatch, usize, usize) + Sync,
    F: Fn(&mut S, &mut RowBatch) + Sync,
{
    debug_assert_eq!(batch.active_rows(), 0, "a pass fills an empty batch");
    let n = batch.num_vertices();
    let nc = batch.num_colorsets();
    if inner_parallel {
        // Band the vertex range; each worker fills a private batch, and
        // the in-order concatenation reproduces the serial batch exactly
        // (rows are independent, so band boundaries cannot change them).
        let bands = (rayon::current_num_threads() * 4).max(1);
        let band_len = n.div_ceil(bands).max(64);
        let n_bands = n.div_ceil(band_len);
        let parts: Vec<RowBatch> = (0..n_bands)
            .into_par_iter()
            .map(|b| {
                let start = b * band_len;
                let end = (start + band_len).min(n);
                let mut part = batch.empty_like(end - start);
                let mut scratch = new_scratch();
                for v in start..end {
                    compute(&mut scratch, &mut part, v, v - start);
                }
                finish(&mut scratch, &mut part);
                part
            })
            .collect();
        *batch = RowBatch::concat(n, nc, parts);
    } else {
        let mut scratch = new_scratch();
        for v in 0..n {
            compute(&mut scratch, batch, v, v);
        }
        finish(&mut scratch, batch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coloring::random_coloring;
    use crate::engine::DpContext;
    use fascia_table::{AnyTable, DenseTable, HashCountTable, LazyTable, TableKind};
    use fascia_template::partition::NodeKind;
    use fascia_template::{PartitionStrategy, PartitionTree, Template};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::cell::Cell;

    /// One boxed row per vertex, `None` for a vertex without a count.
    type RefRows = Vec<Option<Box<[f64]>>>;

    /// The frozen vertex-major scalar recurrence the batched kernel
    /// replaced: per-vertex probes one color set at a time, one boxed row
    /// per active vertex. This is the arithmetic [`cut_batch`] must
    /// reproduce bit for bit.
    fn cut_rows_ref<N: Neighbors, T: CountTable>(g: &N, job: &CutJob<'_, '_, T>) -> RefRows {
        let CutJob {
            labels,
            node,
            a_node,
            p_node,
            act,
            pas,
            ctx,
            coloring,
            ..
        } = *job;
        let h = node.size as usize;
        let a = a_node.size as usize;
        let p = p_node.size as usize;
        let nc_h = ctx.nc[h];
        let nc_p = ctx.nc[p];
        let k = ctx.k;
        let rem = if a == 1 {
            Some(&ctx.removals[&node.size][..])
        } else {
            None
        };
        let split = if a > 1 {
            Some(&ctx.splits[&(node.size, a_node.size)])
        } else {
            None
        };

        let compute = |pas_acc: &mut Vec<f64>, v: usize| -> Option<Box<[f64]>> {
            let act_tb: Option<&T> = match act {
                Stored::Single { label } => {
                    if let (Some(l), Some(gl)) = (label, labels) {
                        if gl[v] != *l {
                            return None;
                        }
                    }
                    None
                }
                Stored::Table(tb) => {
                    if !tb.vertex_active(v) {
                        return None;
                    }
                    Some(tb)
                }
            };

            pas_acc.clear();
            pas_acc.resize(nc_p, 0.0);
            let mut any = false;
            match pas {
                Stored::Single { label } => {
                    for &u in g.neighbors(v) {
                        let u = u as usize;
                        if let (Some(l), Some(gl)) = (label, labels) {
                            if gl[u] != *l {
                                continue;
                            }
                        }
                        pas_acc[coloring[u] as usize] += 1.0;
                        any = true;
                    }
                }
                Stored::Table(tb) => {
                    for &u in g.neighbors(v) {
                        let u = u as usize;
                        if !tb.vertex_active(u) {
                            continue;
                        }
                        any = true;
                        for (cs, acc) in pas_acc.iter_mut().enumerate() {
                            *acc += tb.get(u, cs);
                        }
                    }
                }
            }
            if !any {
                return None;
            }

            let mut row = vec![0.0f64; nc_h].into_boxed_slice();
            let mut nonzero = false;
            match (act_tb, rem, split) {
                (None, Some(rem), _) => {
                    let cv = coloring[v] as usize;
                    for (i, slot) in row.iter_mut().enumerate() {
                        let r = rem[i * k + cv];
                        if r >= 0 {
                            let val = pas_acc[r as usize];
                            if val != 0.0 {
                                *slot = val;
                                nonzero = true;
                            }
                        }
                    }
                }
                (Some(tb), _, Some(split)) => {
                    for (i, slot) in row.iter_mut().enumerate() {
                        let mut acc = 0.0;
                        for sp in split.splits(i) {
                            let a_val = tb.get(v, sp.active as usize);
                            if a_val != 0.0 {
                                acc += a_val * pas_acc[sp.passive as usize];
                            }
                        }
                        if acc != 0.0 {
                            *slot = acc;
                            nonzero = true;
                        }
                    }
                }
                _ => unreachable!("active-single uses removals; larger actives use splits"),
            }
            nonzero.then_some(row)
        };

        let mut scratch = Vec::new();
        (0..coloring.len())
            .map(|v| compute(&mut scratch, v))
            .collect()
    }

    /// Random non-negative rows: some vertices without a row, some slots
    /// zero, the rest fractional so addition order shows in the bits.
    fn random_batch(rng: &mut SmallRng, n: usize, nc: usize) -> RowBatch {
        let mut batch = RowBatch::new(n, nc);
        for v in 0..n {
            if !rng.gen_bool(0.7) {
                continue;
            }
            let row = batch.stage();
            for x in row.iter_mut() {
                if rng.gen_range(0u8..3) != 0 {
                    *x = rng.gen_range(0.0..4.0);
                }
            }
            if row.iter().any(|&x| x != 0.0) {
                batch.commit(v);
            }
        }
        batch
    }

    /// A random child: the virtual single-vertex child (maybe labeled), or
    /// a table of random rows in one of `kinds`' layouts.
    fn random_child<T: CountTable>(
        rng: &mut SmallRng,
        n: usize,
        size: u8,
        ctx: &DpContext,
        kinds: &[TableKind],
    ) -> Stored<T> {
        if size == 1 {
            Stored::Single {
                label: rng.gen_bool(0.5).then(|| rng.gen_range(0u8..2)),
            }
        } else {
            let nc = ctx.nc[size as usize];
            let kind = kinds[rng.gen_range(0..kinds.len())];
            Stored::Table(T::from_batch_kind(kind, random_batch(rng, n, nc)))
        }
    }

    /// The two passes `check_cuts` runs per node: serial, then banded.
    const PASSES: [bool; 2] = [false, true];

    thread_local! {
        /// Per pass of [`PASSES`]: how often each combine path ran
        /// (`[removal, blocked]`), and how many blocked passes ended on
        /// a partial block (serial pass only), over this thread's
        /// property-test cases.
        static PATH_HITS: Cell<[[u32; 3]; 2]> = const { Cell::new([[0; 3]; 2]) };
    }

    /// Every cut node of a random tree partition, with random child tables
    /// of layout `T`, over `src`: the kernel must commit exactly the
    /// reference's rows, bit for bit, in a serial and in a banded pass
    /// (`RowBatch::commit` itself rejects rows committed out of vertex
    /// order). Each pass fills a batch from `T::new_batch`, so the hashed
    /// layout's passes stage sparsely, bands included. Templates reach 8 vertices and `k`
    /// exceeds the size by up to 2; nodes with a single-vertex active
    /// child take the removal path, all others the vertex-blocked MAC.
    /// Each pass tallies its path into [`PATH_HITS`].
    fn check_cuts<N: Neighbors, T: CountTable>(
        src: &N,
        n: usize,
        rng: &mut SmallRng,
        kinds: &[TableKind],
    ) {
        let size = rng.gen_range(2usize..9);
        let k = size + rng.gen_range(0usize..3);
        let parents: Vec<u8> = (0..size - 1)
            .map(|i| rng.gen_range(0..i + 1) as u8)
            .collect();
        let t = Template::from_parents(&parents).unwrap();
        let strategy = if rng.gen_bool(0.5) {
            PartitionStrategy::OneAtATime
        } else {
            PartitionStrategy::Balanced
        };
        let pt = PartitionTree::build(&t, strategy).unwrap();
        let ctx = DpContext::new(&pt, k);
        let coloring = random_coloring(n, k, rng.gen());
        let labels: Option<Vec<u8>> = rng
            .gen_bool(0.5)
            .then(|| (0..n).map(|_| rng.gen_range(0u8..2)).collect());
        for &idx in pt.unique_order() {
            let node = &pt.nodes()[idx as usize];
            let NodeKind::Cut { active, passive } = node.kind else {
                continue;
            };
            let a_node = &pt.nodes()[active as usize];
            let p_node = &pt.nodes()[passive as usize];
            let act: Stored<T> = random_child(rng, n, a_node.size, &ctx, kinds);
            let pas: Stored<T> = random_child(rng, n, p_node.size, &ctx, kinds);
            let nc_h = ctx.nc[node.size as usize];
            let blocked = a_node.size > 1;
            // Whether `v` reaches the combine, i.e. joins a block.
            let combined = |v: usize| {
                let live = |u: usize, s: &Stored<T>| match s {
                    Stored::Single { label } => match (label, &labels) {
                        (Some(l), Some(gl)) => gl[u] == *l,
                        _ => true,
                    },
                    Stored::Table(tb) => tb.vertex_active(u),
                };
                live(v, &act) && src.neighbors(v).iter().any(|&u| live(u as usize, &pas))
            };
            let queued = (0..n).filter(|&v| combined(v)).count();
            for (pass, &inner) in PASSES.iter().enumerate() {
                let job = CutJob {
                    labels: labels.as_deref(),
                    node,
                    a_node,
                    p_node,
                    act: &act,
                    pas: &pas,
                    ctx: &ctx,
                    coloring: &coloring,
                    inner_parallel: inner,
                    cancel: None,
                    cm: None,
                };
                let mut batch = T::new_batch(n, nc_h);
                cut_batch(src, &job, &mut batch);
                let want = cut_rows_ref(src, &job);
                let bits = |r: Option<&[f64]>| {
                    r.map(|r| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
                };
                for (v, row) in want.iter().enumerate() {
                    assert_eq!(
                        bits(batch.row(v).as_deref()),
                        bits(row.as_deref()),
                        "node {idx} inner={inner}: vertex {v}"
                    );
                }
                PATH_HITS.with(|h| {
                    let mut hits = h.get();
                    hits[pass][blocked as usize] += 1;
                    if blocked && !inner && queued % LANES != 0 {
                        hits[pass][2] += 1;
                    }
                    h.set(hits);
                });
            }
        }
    }

    fn check_layout<N: Neighbors>(src: &N, n: usize, rng: &mut SmallRng, layout: usize) {
        match layout {
            0 => check_cuts::<N, DenseTable>(src, n, rng, &[TableKind::Dense]),
            1 => check_cuts::<N, LazyTable>(src, n, rng, &[TableKind::Lazy]),
            2 => check_cuts::<N, HashCountTable>(src, n, rng, &[TableKind::Hash]),
            _ => check_cuts::<N, AnyTable>(src, n, rng, &TableKind::all()),
        }
    }

    /// Property-test cases of `cut_batch_matches_scalar_reference`.
    const CASES: u32 = 48;

    thread_local! {
        /// Cases run so far on this thread.
        static CASES_RUN: Cell<u32> = const { Cell::new(0) };
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(CASES))]

        /// The batched kernel against the scalar reference on random
        /// child tables, every layout (and the budget-gated mixed-layout
        /// `AnyTable`), labeled or not, over the undirected graph and both
        /// arc directions of a directed one. After the last case, every
        /// pass must have run both combine paths, and the serial pass must
        /// have ended a blocked node on a partial block.
        #[test]
        fn cut_batch_matches_scalar_reference(seed in any::<u64>(), layout in 0usize..4) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let n = rng.gen_range(8usize..90);
            let m = (n * rng.gen_range(1usize..5)).min(n * (n - 1) / 2);
            let g = fascia_graph::gen::gnm(n, m, rng.gen());
            check_layout(&g, n, &mut rng, layout);
            let dg = DiGraph::orient_randomly(&g, rng.gen());
            check_layout(&OutArcs(&dg), n, &mut rng, layout);
            check_layout(&InArcs(&dg), n, &mut rng, layout);
            let run = CASES_RUN.with(|c| {
                c.set(c.get() + 1);
                c.get()
            });
            if run == CASES {
                let hits = PATH_HITS.with(|h| h.get());
                for (&inner, [removal, blocked, partial]) in PASSES.iter().zip(hits) {
                    let pass = format!("inner={inner}");
                    prop_assert!(removal > 0, "{pass}: removal path never ran");
                    prop_assert!(blocked > 0, "{pass}: blocked path never ran");
                    prop_assert!(inner || partial > 0, "{pass}: no partial final block");
                }
            }
        }
    }
}
