//! Uniform random sampling of template embeddings — the "Enumeration" half
//! of FASCIA at scales where exhaustive listing is impossible.
//!
//! One color-coding iteration's DP tables implicitly encode *every
//! colorful embedding* of the template under that coloring, each with
//! weight 1. Backtracking through the tables top-down — choosing a root
//! (vertex, color set) cell proportional to its count, then recursively
//! splitting each cut node's count across (neighbor, color-split) choices —
//! draws an embedding uniformly at random among the iteration's colorful
//! embeddings. Because every embedding is colorful with the same
//! probability `P`, embeddings sampled this way across iterations are
//! uniform over *all* embeddings in the graph.
//!
//! This extends the paper (which only counts); it is the natural
//! enumeration companion the title promises, and the sampling ideas later
//! systems (e.g. MOTIVO) built on.

use crate::coloring::{iteration_seed, random_coloring};
use crate::engine::{
    effective_colors, retained_tables, CountConfig, CountError, DpContext, Stored,
};
use fascia_combin::set_of_index;
use fascia_graph::Graph;
use fascia_table::{CountTable, LazyTable};
use fascia_template::partition::NodeKind;
use fascia_template::{PartitionTree, Template};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A sampled embedding: `image[i]` is the graph vertex that template
/// vertex `i` maps to.
pub type Embedding = Vec<u32>;

/// Draws up to `samples` embeddings of `t` in `g`, uniformly at random
/// among non-induced occurrences (as injective homomorphisms).
///
/// Iterations whose coloring yields no colorful embedding are skipped.
/// The coloring budget is the stop rule's iteration budget
/// ([`CountConfig::stop_rule`]): `cfg.iterations` colorings classically,
/// or the rule's `max_iters` when an adaptive rule is configured. If every
/// budgeted coloring comes up empty the result is empty (the template most
/// likely does not occur).
pub fn sample_embeddings(
    g: &Graph,
    t: &Template,
    cfg: &CountConfig,
    samples: usize,
) -> Result<Vec<Embedding>, CountError> {
    if t.labels().is_some() {
        return Err(CountError::LabelsRequired);
    }
    let k = effective_colors(t, cfg)?;
    let pt = PartitionTree::build(t, cfg.strategy)?;
    let ctx = DpContext::new(&pt, k);
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x005A_3B17);
    let mut out = Vec::with_capacity(samples);
    if matches!(pt.root().kind, NodeKind::Vertex) {
        // Single-vertex template: every vertex is an occurrence.
        for _ in 0..samples {
            out.push(vec![rng.gen_range(0..g.num_vertices()) as u32]);
        }
        return Ok(out);
    }
    let budget = cfg.stop_rule().budget() as u64;
    let mut iteration = 0u64;
    while out.len() < samples && iteration < budget {
        let coloring = random_coloring(g.num_vertices(), k, iteration_seed(cfg.seed, iteration));
        iteration += 1;
        let tables = retained_tables(g, t, &pt, &ctx, &coloring);
        let sampler = Sampler {
            g,
            pt: &pt,
            ctx: &ctx,
            coloring: &coloring,
            tables: &tables,
        };
        let Some(root_weight) = sampler.node_total(0) else {
            continue;
        };
        if root_weight <= 0.0 {
            continue;
        }
        // Draw several embeddings per successful coloring, bounded so one
        // lucky coloring does not dominate the sample.
        let per_coloring = samples.div_ceil(budget as usize).max(1);
        for _ in 0..per_coloring {
            if out.len() >= samples {
                break;
            }
            if let Some(emb) = sampler.sample_root(&mut rng) {
                out.push(emb);
            }
        }
    }
    Ok(out)
}

struct Sampler<'a> {
    g: &'a Graph,
    pt: &'a PartitionTree,
    ctx: &'a DpContext,
    coloring: &'a [u8],
    tables: &'a [Option<Stored<LazyTable>>],
}

impl<'a> Sampler<'a> {
    fn table(&self, node_idx: u32) -> &Stored<LazyTable> {
        let cid = self.pt.nodes()[node_idx as usize].canon_id as usize;
        self.tables[cid].as_ref().expect("table computed")
    }

    /// Total colorful count of a node's table, if it is materialized.
    fn node_total(&self, node_idx: u32) -> Option<f64> {
        match self.table(node_idx) {
            Stored::Single { .. } => None,
            Stored::Table(tb) => Some(tb.total()),
        }
    }

    /// Count of node `node_idx` at `(v, cs)`.
    fn value(&self, node_idx: u32, v: usize, cs: usize) -> f64 {
        match self.table(node_idx) {
            Stored::Single { .. } => {
                // Singleton color sets rank as the color itself.
                if self.coloring[v] as usize == cs {
                    1.0
                } else {
                    0.0
                }
            }
            Stored::Table(tb) => tb.get(v, cs),
        }
    }

    /// Samples a root cell proportional to its weight and descends.
    fn sample_root(&self, rng: &mut SmallRng) -> Option<Embedding> {
        let Stored::Table(tb) = self.table(0) else {
            // Single-vertex template: uniform vertex.
            let v = rng.gen_range(0..self.g.num_vertices());
            return Some(vec![v as u32]);
        };
        let total = tb.total();
        if total <= 0.0 {
            return None;
        }
        let mut r = rng.gen_range(0.0..total);
        for v in 0..self.g.num_vertices() {
            let Some(row) = tb.row_slice(v) else { continue };
            let row_sum: f64 = row.iter().sum();
            if r >= row_sum {
                r -= row_sum;
                continue;
            }
            for (cs, &w) in row.iter().enumerate() {
                if r < w {
                    let mut image = vec![u32::MAX; self.pt.root().size as usize];
                    let mut full_image = vec![u32::MAX; fascia_template::tree::MAX_TEMPLATE_SIZE];
                    self.descend(0, v, cs, rng, &mut full_image);
                    // Compact to template-vertex order.
                    for (tv, slot) in image.iter_mut().enumerate() {
                        *slot = full_image[tv];
                    }
                    debug_assert!(image.iter().all(|&x| x != u32::MAX));
                    return Some(image);
                }
                r -= w;
            }
            // Floating point slack: fall through to the next vertex.
        }
        None
    }

    /// Recursively assigns graph vertices to the template vertices of the
    /// subtemplate at `node_idx`, given its root maps to `v` with color
    /// set index `cs`.
    fn descend(&self, node_idx: u32, v: usize, cs: usize, rng: &mut SmallRng, image: &mut [u32]) {
        let node = &self.pt.nodes()[node_idx as usize];
        match node.kind {
            NodeKind::Vertex => {
                image[node.root as usize] = v as u32;
            }
            NodeKind::Triangle { partners } => {
                // Enumerate valid ordered (u, w) pairs consistent with cs,
                // pick one uniformly.
                let set = set_of_index(cs, 3, self.ctx.k, &self.ctx.binom);
                let cv = self.coloring[v];
                let mut choices: Vec<(u32, u32)> = Vec::new();
                for &u in self.g.neighbors(v) {
                    let cu = self.coloring[u as usize];
                    if cu == cv {
                        continue;
                    }
                    for &w in self.g.neighbors(v) {
                        if w == u {
                            continue;
                        }
                        let cw = self.coloring[w as usize];
                        if cw == cv || cw == cu {
                            continue;
                        }
                        let mut got = [cv, cu, cw];
                        got.sort_unstable();
                        if got[..] == set[..] && self.g.has_edge(u as usize, w as usize) {
                            choices.push((u, w));
                        }
                    }
                }
                let (u, w) = choices[rng.gen_range(0..choices.len())];
                image[node.root as usize] = v as u32;
                image[partners[0] as usize] = u;
                image[partners[1] as usize] = w;
            }
            NodeKind::Cut { active, passive } => {
                let total = match self.table(node_idx) {
                    Stored::Table(tb) => tb.get(v, cs),
                    Stored::Single { .. } => unreachable!("cut nodes are tables"),
                };
                debug_assert!(total > 0.0, "descended into an empty cell");
                let a_node = &self.pt.nodes()[active as usize];
                let h = node.size;
                let a = a_node.size;
                let mut r = rng.gen_range(0.0..total);
                // Walk (neighbor, split) choices exactly as the DP summed
                // them.
                if a == 1 {
                    let rem = &self.ctx.removals[&h];
                    let k = self.ctx.k;
                    let cv = self.coloring[v] as usize;
                    let rp = rem[cs * k + cv];
                    debug_assert!(rp >= 0, "root color must be in the set");
                    let ip = rp as usize;
                    for &u in self.g.neighbors(v) {
                        let w = self.value(passive, u as usize, ip);
                        if r < w {
                            image[node.root as usize] = v as u32;
                            self.descend(passive, u as usize, ip, rng, image);
                            return;
                        }
                        r -= w;
                    }
                } else {
                    let split = &self.ctx.splits[&(h, a)];
                    for &u in self.g.neighbors(v) {
                        for sp in split.splits(cs) {
                            let wa = self.value(active, v, sp.active as usize);
                            if wa == 0.0 {
                                continue;
                            }
                            let wp = self.value(passive, u as usize, sp.passive as usize);
                            let w = wa * wp;
                            if r < w {
                                self.descend(active, v, sp.active as usize, rng, image);
                                self.descend(passive, u as usize, sp.passive as usize, rng, image);
                                return;
                            }
                            r -= w;
                        }
                    }
                }
                // Floating-point slack: retry deterministically with the
                // first non-zero choice.
                for &u in self.g.neighbors(v) {
                    if a == 1 {
                        let rem = &self.ctx.removals[&h];
                        let ip = rem[cs * self.ctx.k + self.coloring[v] as usize] as usize;
                        if self.value(passive, u as usize, ip) > 0.0 {
                            image[node.root as usize] = v as u32;
                            self.descend(passive, u as usize, ip, rng, image);
                            return;
                        }
                    } else {
                        let split = &self.ctx.splits[&(h, a)];
                        for sp in split.splits(cs) {
                            if self.value(active, v, sp.active as usize) > 0.0
                                && self.value(passive, u as usize, sp.passive as usize) > 0.0
                            {
                                self.descend(active, v, sp.active as usize, rng, image);
                                self.descend(passive, u as usize, sp.passive as usize, rng, image);
                                return;
                            }
                        }
                    }
                }
                unreachable!("non-zero cell must have a decomposition");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::count_exact;
    use fascia_graph::gen::gnm;
    use std::collections::HashMap;

    fn cfg(iters: usize) -> CountConfig {
        CountConfig {
            iterations: iters,
            seed: 404,
            ..CountConfig::default()
        }
    }

    fn validate(g: &Graph, t: &Template, emb: &[u32]) {
        assert_eq!(emb.len(), t.size());
        let mut uniq: Vec<u32> = emb.to_vec();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), t.size(), "image must be injective: {emb:?}");
        for &(a, b) in t.edges() {
            assert!(
                g.has_edge(emb[a as usize] as usize, emb[b as usize] as usize),
                "template edge ({a},{b}) unmapped in {emb:?}"
            );
        }
    }

    #[test]
    fn samples_are_valid_embeddings() {
        let g = gnm(40, 120, 6);
        for t in [
            Template::path(3),
            Template::path(5),
            Template::star(4),
            Template::spider(&[1, 1, 2]),
            Template::triangle(),
        ] {
            let samples = sample_embeddings(&g, &t, &cfg(200), 50).unwrap();
            assert!(!samples.is_empty(), "no samples for {t:?}");
            for emb in &samples {
                validate(&g, &t, emb);
            }
        }
    }

    #[test]
    fn sampling_is_roughly_uniform_over_occurrences() {
        // Small graph, P3: every occurrence should appear with similar
        // frequency over many samples.
        let g = gnm(12, 20, 3);
        let t = Template::path(3);
        let exact = count_exact(&g, &t) as usize;
        assert!(exact > 4);
        let samples = sample_embeddings(&g, &t, &cfg(4000), 3000).unwrap();
        assert!(samples.len() >= 2000);
        let mut freq: HashMap<Vec<u32>, usize> = HashMap::new();
        for emb in &samples {
            // Canonical occurrence key: sorted edge set.
            let mut key: Vec<u32> = Vec::new();
            let (a, b, c) = (emb[0], emb[1], emb[2]);
            let mut edges = [(a.min(b), a.max(b)), (b.min(c), b.max(c))];
            edges.sort_unstable();
            for (x, y) in edges {
                key.push(x);
                key.push(y);
            }
            *freq.entry(key).or_default() += 1;
        }
        // All occurrences should be hit given this sample size.
        assert_eq!(freq.len(), exact, "every occurrence sampled at least once");
        let mean = samples.len() as f64 / exact as f64;
        for (occ, &count) in &freq {
            assert!(
                (count as f64) > 0.2 * mean && (count as f64) < 5.0 * mean,
                "occurrence {occ:?} sampled {count} times vs mean {mean:.1}"
            );
        }
    }

    #[test]
    fn absent_template_yields_no_samples() {
        // Star-5 cannot embed in a cycle.
        let ring: Vec<(u32, u32)> = (0..12u32).map(|v| (v, (v + 1) % 12)).collect();
        let g = Graph::from_edges(12, &ring);
        let samples = sample_embeddings(&g, &Template::star(5), &cfg(30), 10).unwrap();
        assert!(samples.is_empty());
    }

    #[test]
    fn labeled_templates_rejected() {
        let g = gnm(10, 20, 1);
        let t = Template::path(3).with_labels(vec![0, 0, 0]).unwrap();
        assert!(matches!(
            sample_embeddings(&g, &t, &cfg(5), 5),
            Err(CountError::LabelsRequired)
        ));
    }

    #[test]
    fn single_vertex_template_samples_vertices() {
        let g = gnm(10, 15, 2);
        let t = Template::from_edges(1, &[]).unwrap();
        let samples = sample_embeddings(&g, &t, &cfg(5), 8).unwrap();
        assert_eq!(samples.len(), 8);
        for emb in samples {
            assert_eq!(emb.len(), 1);
            assert!((emb[0] as usize) < 10);
        }
    }
}
