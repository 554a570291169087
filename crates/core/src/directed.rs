//! Directed subgraph counting — the extension the paper explicitly
//! defers ("although the algorithm theoretically allows for directed
//! templates and networks, we currently only analyze undirected").
//!
//! The dynamic program is the undirected one with a single change: when a
//! cut separates subtemplate root `r` from passive root `u'`, the neighbor
//! sum at graph vertex `v` walks `v`'s **out**-neighbors if the template
//! arc points `r -> u'` and its **in**-neighbors otherwise. So
//! [`count_directed`] is a set-up over the engine's shared iteration
//! driver: the batched kernel reads one of the two arc lists per cut node,
//! and everything else — colorfulness, table layouts and memory budgets,
//! parallel modes, stop rules, cancellation, checkpoints and observers —
//! is the undirected engine's. Only the scaling differs, using the
//! *directed* automorphism count (`1 / (P · α)`).
//!
//! Canonical table sharing is disabled ([`PartitionTree::into_unshared`]):
//! two subtrees that are automorphic undirected may carry different arc
//! orientations, so their tables differ.

use crate::engine::{drive, effective_colors, CountConfig, CountError, CountResult, Run, Source};
use fascia_graph::digraph::DiGraph;
use fascia_template::directed::DiTemplate;
use fascia_template::PartitionTree;

/// Approximate count of non-induced occurrences of a directed tree
/// template in a directed graph.
pub fn count_directed(
    g: &DiGraph,
    t: &DiTemplate,
    cfg: &CountConfig,
) -> Result<CountResult, CountError> {
    let k = effective_colors(t.underlying(), cfg)?;
    let pt = PartitionTree::build(t.underlying(), cfg.strategy)?.into_unshared();
    let run = Run {
        src: Source::Directed(g, t),
        labels: None,
        t: t.underlying(),
        pt: &pt,
        k,
        alpha: t.automorphisms(),
        rooted: false,
    };
    Ok(drive(&run, cfg)?.0)
}

/// Exact count of directed non-induced occurrences by backtracking.
pub fn count_exact_directed(g: &DiGraph, t: &DiTemplate) -> u128 {
    let k = t.size();
    // BFS matching order over the underlying tree.
    let und = t.underlying();
    let mut order = Vec::with_capacity(k);
    let mut seen = vec![false; k];
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(0u8);
    seen[0] = true;
    while let Some(v) = queue.pop_front() {
        order.push(v);
        for &u in und.neighbors(v) {
            if !seen[u as usize] {
                seen[u as usize] = true;
                queue.push_back(u);
            }
        }
    }
    let pos = {
        let mut p = vec![0usize; k];
        for (i, &v) in order.iter().enumerate() {
            p[v as usize] = i;
        }
        p
    };
    // Per depth: (anchor position, template arc points anchor -> new).
    let anchors: Vec<(usize, bool)> = order
        .iter()
        .enumerate()
        .skip(1)
        .map(|(i, &tv)| {
            let parent = und
                .neighbors(tv)
                .iter()
                .copied()
                .find(|&u| pos[u as usize] < i)
                .expect("BFS order has a mapped neighbor");
            (pos[parent as usize], t.points_from(parent, tv))
        })
        .collect();

    let n = g.num_vertices();
    let mut total = 0u128;
    let mut image = vec![u32::MAX; k];
    let mut used = vec![false; n];
    for v0 in 0..n {
        image[0] = v0 as u32;
        used[v0] = true;
        total += extend_dir(g, &anchors, &mut image, &mut used, 1);
        used[v0] = false;
    }
    let alpha = t.automorphisms() as u128;
    debug_assert_eq!(total % alpha, 0);
    total / alpha
}

fn extend_dir(
    g: &DiGraph,
    anchors: &[(usize, bool)],
    image: &mut [u32],
    used: &mut [bool],
    depth: usize,
) -> u128 {
    if depth > anchors.len() {
        return 1;
    }
    let (apos, outward) = anchors[depth - 1];
    let anchor_img = image[apos] as usize;
    let candidates = if outward {
        g.out_neighbors(anchor_img)
    } else {
        g.in_neighbors(anchor_img)
    };
    let mut total = 0u128;
    for &cand in candidates {
        let c = cand as usize;
        if used[c] {
            continue;
        }
        image[depth] = cand;
        used[c] = true;
        total += extend_dir(g, anchors, image, used, depth + 1);
        used[c] = false;
    }
    image[depth] = u32::MAX;
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::ParallelMode;
    use fascia_graph::gen::gnm;

    fn cfg(iters: usize) -> CountConfig {
        CountConfig {
            iterations: iters,
            parallel: ParallelMode::Serial,
            seed: 88,
            ..CountConfig::default()
        }
    }

    #[test]
    fn single_arc_template_counts_arcs() {
        let und = gnm(40, 111, 2);
        let g = DiGraph::orient_randomly(&und, 7);
        let t = DiTemplate::directed_path(2);
        assert_eq!(count_exact_directed(&g, &t), 111);
        let r = count_directed(&g, &t, &cfg(1500)).unwrap();
        let rel = (r.estimate - 111.0).abs() / 111.0;
        assert!(rel < 0.08, "estimate {}", r.estimate);
    }

    #[test]
    fn directed_estimates_converge_to_exact() {
        let und = gnm(50, 170, 11);
        let g = DiGraph::orient_randomly(&und, 3);
        for t in [
            DiTemplate::directed_path(3),
            DiTemplate::directed_path(4),
            DiTemplate::out_star(4),
            DiTemplate::in_star(4),
            DiTemplate::from_arcs(4, &[(0, 1), (0, 2), (3, 0)]).unwrap(),
        ] {
            let exact = count_exact_directed(&g, &t) as f64;
            if exact == 0.0 {
                continue;
            }
            let r = count_directed(&g, &t, &cfg(1000)).unwrap();
            let rel = (r.estimate - exact).abs() / exact;
            assert!(
                rel < 0.12,
                "{t:?}: estimate {} vs exact {exact}",
                r.estimate
            );
        }
    }

    #[test]
    fn orientation_classes_partition_undirected_count() {
        // Every undirected P3 occurrence realizes exactly one of the three
        // directed 3-vertex patterns (path, out-star, in-star), so the
        // directed exact counts sum to the undirected exact count.
        let und = gnm(45, 140, 5);
        let g = DiGraph::orient_randomly(&und, 9);
        let undirected = crate::exact::count_exact(&und, &fascia_template::Template::path(3));
        let path = count_exact_directed(&g, &DiTemplate::directed_path(3));
        let out = count_exact_directed(&g, &DiTemplate::out_star(3));
        let inw = count_exact_directed(&g, &DiTemplate::in_star(3));
        assert_eq!(path + out + inw, undirected);
    }

    #[test]
    fn out_and_in_star_differ_on_skewed_orientation() {
        // Orient all edges low -> high id: vertex n-1 is a pure sink.
        let und = gnm(30, 90, 13);
        let arcs: Vec<(u32, u32)> = und.edges();
        let g = DiGraph::from_arcs(30, &arcs); // edges() gives u < v
        let out = count_exact_directed(&g, &DiTemplate::out_star(3));
        let inw = count_exact_directed(&g, &DiTemplate::in_star(3));
        // A DAG oriented by id generally has different in/out wedge counts;
        // at minimum the estimator must agree with each exactly.
        let r_out = count_directed(&g, &DiTemplate::out_star(3), &cfg(1200)).unwrap();
        let r_in = count_directed(&g, &DiTemplate::in_star(3), &cfg(1200)).unwrap();
        let rel_out = (r_out.estimate - out as f64).abs() / (out as f64).max(1.0);
        let rel_in = (r_in.estimate - inw as f64).abs() / (inw as f64).max(1.0);
        assert!(rel_out < 0.12, "out: {} vs {out}", r_out.estimate);
        assert!(rel_in < 0.12, "in: {} vs {inw}", r_in.estimate);
    }

    #[test]
    fn directed_symmetry_breaking_vs_undirected() {
        // Summing a directed template over both path orientations equals…
        // nothing trivial — but the directed count of P3 must be bounded by
        // the undirected count.
        let und = gnm(40, 120, 17);
        let g = DiGraph::orient_randomly(&und, 21);
        let directed = count_exact_directed(&g, &DiTemplate::directed_path(4));
        let undirected = crate::exact::count_exact(&und, &fascia_template::Template::path(4));
        assert!(directed <= undirected);
    }

    #[test]
    fn error_paths() {
        let und = gnm(10, 20, 1);
        let g = DiGraph::orient_randomly(&und, 1);
        let t = DiTemplate::directed_path(3);
        let mut c = cfg(1);
        c.iterations = 0;
        assert!(matches!(
            count_directed(&g, &t, &c),
            Err(CountError::NoIterations)
        ));
        let mut c = cfg(1);
        c.colors = Some(2);
        assert!(matches!(
            count_directed(&g, &t, &c),
            Err(CountError::NotEnoughColors { .. })
        ));
    }
}
