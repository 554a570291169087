//! Simulated distributed-memory execution.
//!
//! The paper's future work — "consider partitioning the dynamic
//! programming table for execution on a distributed-memory platform" — is
//! what PARSE (ICPP 2010) and SAHAD (IPDPS 2012) did: partition the
//! vertices across ranks, let each rank own its vertices' table rows, and
//! exchange *ghost rows* (passive-child rows of remote neighbors) before
//! each subtemplate step.
//!
//! Real MPI is out of scope for an offline workstation build, so this
//! module simulates that execution faithfully enough to study it. A
//! vertex-partitioned counter runs the same per-vertex DP on every rank
//! and differs only in the rows it exchanges, so the simulator runs the
//! shared-memory engine's own DP pass once per iteration (the estimate is
//! therefore **bitwise identical** — the tests assert it) and derives
//! from its tables the communication a real cluster would pay: ghost rows
//! fetched per step, bytes on the wire, and the per-rank row-compute load
//! balance.
//!
//! That pass keeps every subtemplate table of the iteration alive, as the
//! embedding sampler's pass does, rather than releasing each after its
//! last consumer, so a simulated run holds one iteration's full table set
//! at a time. [`DistResult`] reports no memory, and every in-repo caller
//! counts templates of at most five vertices (U5-2 and smaller), where
//! that set is a handful of `n`-row tables.

use crate::coloring::{iteration_seed, random_coloring};
use crate::engine::{
    effective_colors, retained_tables, CountConfig, CountError, DpContext, Stored,
};
use fascia_combin::colorful_probability;
use fascia_graph::Graph;
use fascia_table::CountTable;
use fascia_template::automorphism::automorphisms;
use fascia_template::partition::NodeKind;
use fascia_template::{PartitionTree, Template};
use std::collections::BTreeSet;

/// How vertices are assigned to ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionScheme {
    /// Contiguous blocks of vertex ids (locality-friendly for meshes).
    Block,
    /// `v mod ranks` (balances skewed degree distributions).
    Hash,
}

/// Configuration of a simulated distributed run.
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// Number of simulated ranks (>= 1).
    pub ranks: usize,
    /// Vertex-to-rank assignment.
    pub scheme: PartitionScheme,
    /// The usual engine configuration (table kind is fixed to the lazy
    /// layout, which is what a distributed implementation shards).
    pub count: CountConfig,
}

impl Default for DistConfig {
    fn default() -> Self {
        Self {
            ranks: 4,
            scheme: PartitionScheme::Block,
            count: CountConfig::default(),
        }
    }
}

/// Result of a simulated distributed run.
#[derive(Debug, Clone)]
pub struct DistResult {
    /// Final estimate — bitwise identical to the shared-memory engine's.
    pub estimate: f64,
    /// Per-iteration estimates.
    pub per_iteration: Vec<f64>,
    /// Ghost rows fetched across all steps and iterations.
    pub ghost_rows: u64,
    /// Simulated wire bytes for those fetches (active rows cost a full
    /// row, inactive ones a 1-byte flag).
    pub comm_bytes: u64,
    /// Per-subtemplate-step communication bytes (summed over iterations),
    /// in `unique_order` sequence.
    pub per_step_bytes: Vec<u64>,
    /// Max over ranks of owned active rows, summed over steps — the
    /// straggler bound on compute balance.
    pub max_rank_rows: u64,
    /// Total active rows over all ranks and steps.
    pub total_rows: u64,
}

impl DistResult {
    /// Load imbalance: max rank load over mean rank load (1.0 = perfect).
    pub fn imbalance(&self, ranks: usize) -> f64 {
        if self.total_rows == 0 {
            return 1.0;
        }
        self.max_rank_rows as f64 / (self.total_rows as f64 / ranks as f64)
    }
}

/// Owner rank of each vertex.
pub fn owners(n: usize, ranks: usize, scheme: PartitionScheme) -> Vec<u32> {
    match scheme {
        PartitionScheme::Block => {
            let per = n.div_ceil(ranks.max(1));
            (0..n).map(|v| (v / per) as u32).collect()
        }
        PartitionScheme::Hash => (0..n).map(|v| (v % ranks) as u32).collect(),
    }
}

/// Runs the color-coding count on a simulated cluster.
///
/// Unlabeled templates only (as the distributed follow-on systems).
pub fn count_distributed(
    g: &Graph,
    t: &Template,
    cfg: &DistConfig,
) -> Result<DistResult, CountError> {
    if t.labels().is_some() {
        return Err(CountError::LabelsRequired);
    }
    if cfg.ranks == 0 {
        return Err(CountError::NoIterations);
    }
    let k = effective_colors(t, &cfg.count)?;
    let pt = PartitionTree::build(t, cfg.count.strategy)?;
    let ctx = DpContext::new(&pt, k);
    let n = g.num_vertices();
    let owner = owners(n, cfg.ranks, cfg.scheme);
    // Owned vertex lists per rank.
    let mut owned: Vec<Vec<u32>> = vec![Vec::new(); cfg.ranks];
    for v in 0..n {
        owned[owner[v] as usize].push(v as u32);
    }
    // Remote neighbors of each rank's owned vertices: the ghosts it
    // fetches before every step.
    let ghosts: Vec<BTreeSet<u32>> = owned
        .iter()
        .enumerate()
        .map(|(rank, verts)| {
            verts
                .iter()
                .flat_map(|&v| g.neighbors(v as usize))
                .copied()
                .filter(|&u| owner[u as usize] as usize != rank)
                .collect()
        })
        .collect();
    let ghost_total: u64 = ghosts.iter().map(|set| set.len() as u64).sum();

    let alpha = automorphisms(t) as f64;
    let p = colorful_probability(k, t.size());
    let scale = p * alpha;

    let mut per_iteration = Vec::with_capacity(cfg.count.iterations);
    let mut ghost_rows = 0u64;
    let mut comm_bytes = 0u64;
    let mut per_step_bytes = vec![0u64; pt.unique_order().len()];
    let mut rank_rows = vec![0u64; cfg.ranks];

    for iter in 0..cfg.count.iterations as u64 {
        let coloring = random_coloring(n, k, iteration_seed(cfg.count.seed, iter));
        // Broadcasting the coloring: n bytes injected by rank 0 (tree
        // broadcast; each rank receives the full color vector once).
        if cfg.ranks > 1 {
            comm_bytes += n as u64;
        }
        let stored = retained_tables(g, t, &pt, &ctx, &coloring);
        let table = |cid: usize| match &stored[cid] {
            Some(Stored::Table(tb)) => Some(tb),
            _ => None,
        };

        for (step, &idx) in pt.unique_order().iter().enumerate() {
            let node = &pt.nodes()[idx as usize];
            let bytes = match node.kind {
                NodeKind::Vertex => continue,
                // Triangles read the coloring plus two-hop adjacency; a
                // real system replicates boundary adjacency, which we
                // charge as one ghost "row" (flag-sized) per remote
                // neighbor of each owned vertex.
                NodeKind::Triangle { .. } => {
                    ghost_rows += ghost_total;
                    ghost_total
                }
                // Ghost exchange: passive rows of remote neighbors (an
                // active row costs a full row, an inactive one a flag).
                NodeKind::Cut { passive, .. } => {
                    let p_node = &pt.nodes()[passive as usize];
                    match table(p_node.canon_id as usize) {
                        Some(ptab) => {
                            let row_bytes = (ctx.nc[p_node.size as usize] * 8) as u64;
                            ghost_rows += ghost_total;
                            ghosts
                                .iter()
                                .flatten()
                                .map(|&u| match ptab.vertex_active(u as usize) {
                                    true => row_bytes,
                                    false => 1,
                                })
                                .sum()
                        }
                        None => 0,
                    }
                }
            };
            comm_bytes += bytes;
            per_step_bytes[step] += bytes;
            // Each rank computes its owned vertices' rows.
            let own = table(node.canon_id as usize).expect("materialized node has a table");
            for (rank, verts) in owned.iter().enumerate() {
                rank_rows[rank] += verts
                    .iter()
                    .filter(|&&v| own.vertex_active(v as usize))
                    .count() as u64;
            }
        }

        // Final reduction: each rank contributes its owned partial sum
        // (8 bytes per rank).
        comm_bytes += 8 * cfg.ranks as u64;
        let total = match table(pt.root().canon_id as usize) {
            Some(tb) => tb.total(),
            None => n as f64,
        };
        per_iteration.push(total / scale);
    }

    let estimate = per_iteration.iter().sum::<f64>() / per_iteration.len().max(1) as f64;
    Ok(DistResult {
        estimate,
        per_iteration,
        ghost_rows,
        comm_bytes,
        per_step_bytes,
        max_rank_rows: rank_rows.iter().copied().max().unwrap_or(0),
        total_rows: rank_rows.iter().sum(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::count_template;
    use crate::parallel::ParallelMode;
    use fascia_graph::gen::{gnm, road_grid};
    use fascia_template::NamedTemplate;

    fn base(iters: usize) -> CountConfig {
        CountConfig {
            iterations: iters,
            parallel: ParallelMode::Serial,
            seed: 77,
            ..CountConfig::default()
        }
    }

    #[test]
    fn distributed_matches_shared_memory_bitwise() {
        let g = gnm(120, 400, 9);
        for t in [
            Template::path(4),
            NamedTemplate::U5_2.template(),
            Template::triangle(),
        ] {
            let shared = count_template(&g, &t, &base(4)).unwrap();
            for ranks in [1usize, 3, 8] {
                for scheme in [PartitionScheme::Block, PartitionScheme::Hash] {
                    let cfg = DistConfig {
                        ranks,
                        scheme,
                        count: base(4),
                    };
                    let dist = count_distributed(&g, &t, &cfg).unwrap();
                    assert_eq!(
                        dist.per_iteration, shared.per_iteration,
                        "{t:?} ranks={ranks} {scheme:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn single_rank_has_no_ghost_traffic() {
        let g = gnm(60, 200, 3);
        let cfg = DistConfig {
            ranks: 1,
            scheme: PartitionScheme::Block,
            count: base(2),
        };
        let r = count_distributed(&g, &Template::path(5), &cfg).unwrap();
        assert_eq!(r.ghost_rows, 0);
    }

    #[test]
    fn more_ranks_means_more_communication() {
        let g = gnm(200, 800, 5);
        let comm = |ranks| {
            let cfg = DistConfig {
                ranks,
                scheme: PartitionScheme::Hash,
                count: base(2),
            };
            count_distributed(&g, &Template::path(5), &cfg)
                .unwrap()
                .comm_bytes
        };
        let c2 = comm(2);
        let c8 = comm(8);
        assert!(c8 > c2, "8 ranks {c8} bytes vs 2 ranks {c2} bytes");
    }

    #[test]
    fn block_partition_beats_hash_on_meshes() {
        // On a road grid, block partitioning keeps neighbors co-located;
        // hash partitioning scatters them — a classic distributed-graph
        // result the simulator should reproduce.
        let g = road_grid(20, 20, 500, 4);
        let run = |scheme| {
            let cfg = DistConfig {
                ranks: 4,
                scheme,
                count: base(2),
            };
            count_distributed(&g, &Template::path(5), &cfg)
                .unwrap()
                .ghost_rows
        };
        let block = run(PartitionScheme::Block);
        let hash = run(PartitionScheme::Hash);
        assert!(
            block < hash,
            "block {block} ghost rows should beat hash {hash} on a mesh"
        );
    }

    #[test]
    fn load_metrics_are_consistent() {
        let g = gnm(150, 500, 13);
        let cfg = DistConfig {
            ranks: 5,
            scheme: PartitionScheme::Block,
            count: base(3),
        };
        let r = count_distributed(&g, &Template::path(4), &cfg).unwrap();
        assert!(r.max_rank_rows <= r.total_rows);
        assert!(r.max_rank_rows * 5 >= r.total_rows, "max rank below mean");
        let imb = r.imbalance(5);
        assert!((1.0..=5.0).contains(&imb));
        assert_eq!(
            r.per_step_bytes.iter().sum::<u64>()
                + 8 * 5 * r.per_iteration.len() as u64
                + (g.num_vertices() as u64) * r.per_iteration.len() as u64,
            r.comm_bytes,
            "per-step bytes + reductions + coloring broadcasts add up"
        );
    }

    #[test]
    fn zero_ranks_rejected() {
        let g = gnm(10, 20, 1);
        let cfg = DistConfig {
            ranks: 0,
            scheme: PartitionScheme::Block,
            count: base(1),
        };
        assert!(count_distributed(&g, &Template::path(3), &cfg).is_err());
    }
}
