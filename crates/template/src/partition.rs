//! Template partitioning into active/passive subtemplate trees (§III-D).
//!
//! A subtemplate is a connected, rooted piece of the template (a vertex
//! mask plus a root). Cutting a single edge `(r, u)` incident to the root
//! of a subtemplate produces the **active child** (the piece containing
//! `r`, still rooted at `r`) and the **passive child** (the piece
//! containing `u`, rooted at `u`). Recursing down to single vertices (or
//! triangles, for the tree-like class) yields the *partition tree* that
//! drives the bottom-up dynamic program.
//!
//! Two of the paper's heuristics are implemented as [`PartitionStrategy`]:
//!
//! * **One-at-a-time** roots the template at a leaf and always cuts the
//!   edge to the largest child subtree, so the active child shrinks to a
//!   single vertex as fast as possible. Single-vertex active children let
//!   the DP skip all but one color set per graph vertex (the paper's
//!   `(k-1)/k` work reduction).
//! * **Balanced** roots at a tree center and cuts so the two children are
//!   as even as possible, which minimizes the dominant
//!   `C(k, |S|) * C(|S|, |a|)` table terms for large templates.
//!
//! Independently of strategy, subtemplates are deduplicated by rooted
//! canonical form: automorphic subtemplates (e.g. the three legs of U7-2)
//! share a single canonical class and therefore a single DP table — the
//! paper's rooted-symmetry optimization.

use crate::canon::VertMask;
use crate::tree::{Template, TemplateKind};
use std::collections::HashMap;

/// Heuristic used to choose cut edges and the template root.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartitionStrategy {
    /// Root at a leaf; peel the largest child subtree first (paper default).
    OneAtATime,
    /// Root at a tree center; split as evenly as possible.
    Balanced,
}

/// How a subtemplate bottoms out or splits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A single template vertex (the DP reads its count off the coloring).
    Vertex,
    /// A triangle rooted at `root`; `partners` are the two other corners.
    Triangle {
        /// The two non-root corners of the triangle.
        partners: [u8; 2],
    },
    /// An internal node produced by one edge cut.
    Cut {
        /// Index of the active child (contains this node's root).
        active: u32,
        /// Index of the passive child (rooted at the far cut endpoint).
        passive: u32,
    },
}

/// One subtemplate in the partition tree.
#[derive(Debug, Clone)]
pub struct SubNode {
    /// Template vertex acting as this subtemplate's root.
    pub root: u8,
    /// Template vertices included in this subtemplate.
    pub mask: VertMask,
    /// Number of vertices (`mask.count_ones()`).
    pub size: u8,
    /// Base case or cut structure.
    pub kind: NodeKind,
    /// Canonical-class id; automorphic subtemplates share one id and hence
    /// one DP table.
    pub canon_id: u32,
}

/// Partitioning failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionError {
    /// No root admits a full partition (e.g. a triangle with pendant trees
    /// on two different corners).
    NoValidRoot,
}

impl std::fmt::Display for PartitionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionError::NoValidRoot => write!(
                f,
                "template cannot be partitioned by single edge cuts from any root \
                 (triangles may carry pendant subtrees on at most one corner)"
            ),
        }
    }
}

impl std::error::Error for PartitionError {}

/// The full partition tree of a template.
#[derive(Debug, Clone)]
pub struct PartitionTree {
    nodes: Vec<SubNode>,
    unique_order: Vec<u32>,
    num_classes: usize,
    strategy: PartitionStrategy,
    template_root: u8,
}

impl PartitionTree {
    /// Partitions `t` with the given strategy, trying strategy-preferred
    /// roots first and falling back to every root.
    pub fn build(t: &Template, strategy: PartitionStrategy) -> Result<Self, PartitionError> {
        let n = t.size() as u8;
        let mut candidates: Vec<u8> = Vec::with_capacity(n as usize);
        match strategy {
            PartitionStrategy::OneAtATime => {
                candidates.extend((0..n).filter(|&v| t.degree(v) <= 1));
            }
            PartitionStrategy::Balanced => {
                if t.kind() == TemplateKind::Tree {
                    candidates.extend(t.tree_centers());
                }
            }
        }
        candidates.extend(0..n);
        candidates.dedup();
        let mut tried = vec![false; n as usize];
        for root in candidates {
            if std::mem::replace(&mut tried[root as usize], true) {
                continue;
            }
            if let Some(tree) = Builder::try_build(t, root, strategy) {
                return Ok(tree);
            }
        }
        Err(PartitionError::NoValidRoot)
    }

    /// Partitions `t` with the template root forced to `root` — required
    /// by the graphlet-degree experiments, where per-vertex counts must be
    /// rooted at a specific orbit vertex.
    pub fn build_with_root(
        t: &Template,
        root: u8,
        strategy: PartitionStrategy,
    ) -> Result<Self, PartitionError> {
        assert!((root as usize) < t.size(), "root out of range");
        Builder::try_build(t, root, strategy).ok_or(PartitionError::NoValidRoot)
    }

    /// Converts to a tree without canonical-class sharing: every node gets
    /// its own class (and therefore its own DP table). Required when table
    /// contents depend on more than the rooted shape — e.g. directed
    /// templates, where two undirected-automorphic subtrees can carry
    /// different arc orientations.
    pub fn into_unshared(mut self) -> Self {
        for (i, node) in self.nodes.iter_mut().enumerate() {
            node.canon_id = i as u32;
        }
        self.num_classes = self.nodes.len();
        self.unique_order = ClassDag::new(&self.nodes, self.num_classes).min_peak_order();
        self
    }

    /// All subtemplate nodes; index 0 is the full template.
    pub fn nodes(&self) -> &[SubNode] {
        &self.nodes
    }

    /// The full-template node.
    pub fn root(&self) -> &SubNode {
        &self.nodes[0]
    }

    /// The template vertex chosen as the root of the whole template.
    pub fn template_root(&self) -> u8 {
        self.template_root
    }

    /// Bottom-up computation order over *representative* nodes: exactly one
    /// node per canonical class, children always before parents. This is
    /// "the order in which the subtemplates are accessed" from the paper.
    ///
    /// It minimizes the peak bytes of live tables, found by an exact search
    /// over the downsets of the class DAG. A class of `h` vertices weighs
    /// `C(k, h)`, to which every layout's table size is proportional. A
    /// table is allocated while its children are still live and is freed
    /// once its last consumer is built, as the engine does; the root's is
    /// held for the final sum. Each class is represented by the first node
    /// of it that an active-then-passive depth-first walk meets. Where
    /// that walk's post-order already reaches the minimum it is the order
    /// used; otherwise the order is the deterministic optimum that prefers
    /// the walk's earlier classes.
    pub fn unique_order(&self) -> &[u32] {
        &self.unique_order
    }

    /// Number of canonical subtemplate classes (= number of DP tables that
    /// ever get built).
    pub fn num_canon_classes(&self) -> usize {
        self.num_classes
    }

    /// The strategy this tree was built with.
    pub fn strategy(&self) -> PartitionStrategy {
        self.strategy
    }

    /// For each canonical class, how many times its table is read as a
    /// child of a representative internal node, plus one for the root class
    /// (whose table is read by the final summation). Used by the engine to
    /// free tables as soon as all their consumers are done; the scheduler
    /// behind [`PartitionTree::unique_order`] models the same lifetimes.
    /// Classes no representative reaches count 0.
    pub fn class_use_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.num_classes];
        for &idx in &self.unique_order {
            if let NodeKind::Cut { active, passive } = self.nodes[idx as usize].kind {
                counts[self.nodes[active as usize].canon_id as usize] += 1;
                counts[self.nodes[passive as usize].canon_id as usize] += 1;
            }
        }
        counts[self.root().canon_id as usize] += 1;
        counts
    }

    /// Cost model of the DP loops (paper §III-D): the inner loops of a
    /// subtemplate of size `h` with active child of size `a` touch
    /// `C(k, h) * C(h, a)` table cells per (vertex, neighbor) pair. The sum
    /// over unique internal nodes predicts relative strategy cost.
    pub fn estimated_ops(&self, k: usize) -> u128 {
        use fascia_combin_choose as choose;
        let mut total: u128 = 0;
        for &idx in &self.unique_order {
            let node = &self.nodes[idx as usize];
            if let NodeKind::Cut { active, .. } = node.kind {
                let h = node.size as usize;
                let a = self.nodes[active as usize].size as usize;
                total += (choose(k, h) as u128) * (choose(h, a) as u128);
            }
        }
        total
    }

    /// Peak number of simultaneously live tables under the engine's
    /// free-when-done policy (diagnostic; the paper reports "at most four"
    /// for its ordering). The order minimizes bytes, not tables: under
    /// one-at-a-time every named template stays within four, balanced
    /// ones within five.
    pub fn peak_live_tables(&self) -> usize {
        let mut uses = self.class_use_counts();
        let mut live: Vec<bool> = vec![false; self.num_classes];
        let mut peak = 0usize;
        for &idx in &self.unique_order {
            let node = &self.nodes[idx as usize];
            live[node.canon_id as usize] = true;
            peak = peak.max(live.iter().filter(|&&l| l).count());
            if let NodeKind::Cut { active, passive } = node.kind {
                for child in [active, passive] {
                    let cid = self.nodes[child as usize].canon_id as usize;
                    uses[cid] -= 1;
                    if uses[cid] == 0 {
                        live[cid] = false;
                    }
                }
            }
        }
        peak
    }
}

/// Local binomial (avoids a dependency cycle with `fascia-combin`; exact
/// for the tiny template sizes involved).
fn fascia_combin_choose(n: usize, r: usize) -> u64 {
    if r > n {
        return 0;
    }
    let r = r.min(n - r);
    let mut acc = 1u64;
    for i in 0..r {
        acc = acc * (n - i) as u64 / (i + 1) as u64;
    }
    acc
}

struct Builder<'a> {
    t: &'a Template,
    strategy: PartitionStrategy,
    nodes: Vec<SubNode>,
    canon_ids: HashMap<String, u32>,
    /// Memo of (root, mask) -> node index, so repeated subtemplates are a
    /// single node.
    memo: HashMap<(u8, VertMask), u32>,
}

impl<'a> Builder<'a> {
    fn try_build(t: &'a Template, root: u8, strategy: PartitionStrategy) -> Option<PartitionTree> {
        let mut b = Builder {
            t,
            strategy,
            nodes: Vec::new(),
            canon_ids: HashMap::new(),
            memo: HashMap::new(),
        };
        let full: VertMask = crate::canon::full_mask(t.size());
        // Reserve index 0 for the root node by building it first.
        let root_idx = b.build_node(root, full)?;
        // build_node is recursive post-order, so the root is the LAST node;
        // rotate so the root sits at index 0 for a stable public contract.
        let mut nodes = b.nodes;
        if root_idx as usize != 0 {
            nodes.swap(0, root_idx as usize);
            // Fix child indices after the swap.
            for node in &mut nodes {
                if let NodeKind::Cut { active, passive } = &mut node.kind {
                    for c in [active, passive] {
                        if *c == 0 {
                            *c = root_idx;
                        } else if *c == root_idx {
                            *c = 0;
                        }
                    }
                }
            }
        }
        let num_classes = b.canon_ids.len();
        let unique_order = ClassDag::new(&nodes, num_classes).min_peak_order();
        Some(PartitionTree {
            nodes,
            unique_order,
            num_classes,
            strategy,
            template_root: root,
        })
    }

    fn build_node(&mut self, root: u8, mask: VertMask) -> Option<u32> {
        if let Some(&idx) = self.memo.get(&(root, mask)) {
            return Some(idx);
        }
        let size = mask.count_ones() as u8;
        let kind = if size == 1 {
            NodeKind::Vertex
        } else if let Some(partners) = self.as_triangle(root, mask) {
            NodeKind::Triangle { partners }
        } else {
            // Cut a non-triangle edge at the root.
            let cut_to = self.choose_cut(root, mask)?;
            let passive_mask = component_without(self.t, cut_to, root, mask);
            let active_mask = mask & !passive_mask;
            let active = self.build_node(root, active_mask)?;
            let passive = self.build_node(cut_to, passive_mask)?;
            NodeKind::Cut { active, passive }
        };
        let canon = self.sub_canon(root, mask);
        let next_id = self.canon_ids.len() as u32;
        let canon_id = *self.canon_ids.entry(canon).or_insert(next_id);
        let idx = self.nodes.len() as u32;
        self.nodes.push(SubNode {
            root,
            mask,
            size,
            kind,
            canon_id,
        });
        self.memo.insert((root, mask), idx);
        Some(idx)
    }

    /// If the subtemplate is exactly a triangle containing `root`, returns
    /// the two partner vertices.
    fn as_triangle(&self, root: u8, mask: VertMask) -> Option<[u8; 2]> {
        if mask.count_ones() != 3 {
            return None;
        }
        let tri = self.t.triangles().iter().find(|tri| tri.contains(&root))?;
        let tri_mask: VertMask = tri.iter().fold(0, |m, &v| m | (1 << v));
        if tri_mask != mask {
            return None;
        }
        let partners: Vec<u8> = tri.iter().copied().filter(|&v| v != root).collect();
        Some([partners[0], partners[1]])
    }

    /// Chooses the neighbor `u` such that cutting `(root, u)` follows the
    /// strategy. Only bridge (non-triangle) edges can be cut.
    fn choose_cut(&self, root: u8, mask: VertMask) -> Option<u8> {
        let h = mask.count_ones() as i64;
        let mut best: Option<(i64, u8)> = None;
        for &u in self.t.neighbors(root) {
            if mask & (1 << u) == 0 || self.is_triangle_edge(root, u) {
                continue;
            }
            let psize = component_without(self.t, u, root, mask).count_ones() as i64;
            let score = match self.strategy {
                // Largest passive first -> active shrinks fastest.
                PartitionStrategy::OneAtATime => -psize,
                // Most even split.
                PartitionStrategy::Balanced => (h - 2 * psize).abs(),
            };
            if best.is_none_or(|(s, bu)| score < s || (score == s && u < bu)) {
                best = Some((score, u));
            }
        }
        best.map(|(_, u)| u)
    }

    fn is_triangle_edge(&self, u: u8, v: u8) -> bool {
        self.t
            .triangles()
            .iter()
            .any(|tri| tri.contains(&u) && tri.contains(&v))
    }

    /// Rooted canonical string of the subtemplate (labels included;
    /// triangles encoded as unordered partner pairs).
    fn sub_canon(&self, root: u8, mask: VertMask) -> String {
        fn rec(t: &Template, v: u8, mask: VertMask, visited: &mut VertMask) -> String {
            *visited |= 1 << v;
            let mut parts: Vec<String> = Vec::new();
            if let Some(tri) = t.triangles().iter().find(|tri| tri.contains(&v)) {
                let others: Vec<u8> = tri.iter().copied().filter(|&x| x != v).collect();
                let both_in = others
                    .iter()
                    .all(|&x| mask & (1 << x) != 0 && *visited & (1 << x) == 0);
                if both_in {
                    let mut ls: Vec<String> = others
                        .iter()
                        .map(|&x| {
                            *visited |= 1 << x;
                            format!("{:x}", t.label(x))
                        })
                        .collect();
                    ls.sort_unstable();
                    parts.push(format!("T[{}]", ls.join(",")));
                }
            }
            let kids: Vec<u8> = t
                .neighbors(v)
                .iter()
                .copied()
                .filter(|&u| mask & (1 << u) != 0 && *visited & (1 << u) == 0)
                .collect();
            for u in kids {
                if *visited & (1 << u) != 0 {
                    continue;
                }
                parts.push(rec(t, u, mask, visited));
            }
            parts.sort_unstable();
            format!("{:x}({})", t.label(v), parts.concat())
        }
        let mut visited: VertMask = 0;
        rec(self.t, root, mask, &mut visited)
    }
}

/// Vertices reachable from `from` within `mask` without using the edge
/// `(from, avoid)`.
fn component_without(t: &Template, from: u8, avoid: u8, mask: VertMask) -> VertMask {
    let mut m: VertMask = 1 << from;
    let mut stack = vec![from];
    while let Some(v) = stack.pop() {
        for &u in t.neighbors(v) {
            if mask & (1 << u) == 0 || m & (1 << u) != 0 {
                continue;
            }
            if v == from && u == avoid {
                continue;
            }
            m |= 1 << u;
            stack.push(u);
        }
    }
    m
}

/// Iterates the set bits of `mask`, lowest first.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let b = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            b
        })
    })
}

/// The canonical classes the DP builds, as a DAG over dense ids.
///
/// An active-first depth-first walk from the root fixes, for every class
/// it reaches, one representative node (the first node of the class it
/// meets) and with it the class's two children. Dense ids follow the
/// order in which that walk finishes the classes, so id order is itself a
/// children-first order: the reference that [`ClassDag::min_peak_order`]
/// breaks ties toward. The root class finishes last.
struct ClassDag {
    /// Representative node of each class.
    rep: Vec<u32>,
    /// Each class's children, as a mask of ids (0 for a base case).
    kids: Vec<u64>,
    /// Each class's consumers, as a mask of ids.
    parents: Vec<u64>,
    /// `C(k, h)` for a class of `h` vertices: every layout's table size
    /// is proportional to it.
    weight: Vec<u64>,
    /// The classes with children (cut nodes).
    internal: u64,
}

impl ClassDag {
    fn new(nodes: &[SubNode], num_classes: usize) -> Self {
        fn visit(
            nodes: &[SubNode],
            idx: u32,
            dense: &mut [Option<usize>],
            dag: &mut ClassDag,
        ) -> usize {
            let node = &nodes[idx as usize];
            if let Some(d) = dense[node.canon_id as usize] {
                return d;
            }
            let kids = match node.kind {
                NodeKind::Cut { active, passive } => {
                    (1u64 << visit(nodes, active, dense, dag))
                        | (1u64 << visit(nodes, passive, dense, dag))
                }
                NodeKind::Vertex | NodeKind::Triangle { .. } => 0,
            };
            let d = dag.rep.len();
            dense[node.canon_id as usize] = Some(d);
            dag.rep.push(idx);
            dag.kids.push(kids);
            dag.weight.push(fascia_combin_choose(
                nodes[0].size as usize,
                node.size as usize,
            ));
            if kids != 0 {
                dag.internal |= 1 << d;
            }
            d
        }
        let mut dag = ClassDag {
            rep: Vec::new(),
            kids: Vec::new(),
            parents: Vec::new(),
            weight: Vec::new(),
            internal: 0,
        };
        visit(nodes, 0, &mut vec![None; num_classes], &mut dag);
        // A partition tree has 2k - 1 nodes, so k <= 20 fits the masks.
        assert!(dag.rep.len() <= 64, "class masks are 64 bits wide");
        dag.parents = vec![0; dag.rep.len()];
        for (d, &kids) in dag.kids.iter().enumerate() {
            for c in bits(kids) {
                dag.parents[c] |= 1 << d;
            }
        }
        dag
    }

    fn full(&self) -> u64 {
        u64::MAX >> (64 - self.rep.len())
    }

    /// Weight of the tables held once the classes in `done` are built: a
    /// class is freed when its last consumer exists, and the root's table
    /// is held for the final sum.
    fn live(&self, done: u64) -> u64 {
        let root = self.rep.len() - 1;
        bits(done)
            .filter(|&c| c == root || self.parents[c] & !done != 0)
            .map(|c| self.weight[c])
            .sum()
    }

    /// The peak of evaluating the classes in `order`: building class `c`
    /// after the set `done` holds `live(done) + weight[c]`, since children
    /// are freed only after their parent exists, as the engine does.
    fn peak(&self, order: &[usize]) -> u64 {
        let mut done = 0u64;
        let mut peak = 0;
        for &c in order {
            peak = peak.max(self.live(done) + self.weight[c]);
            done |= 1 << c;
        }
        peak
    }

    /// The cut classes that can be built next after `done`, each with the
    /// peak of its step and the computed set after it. A cut's missing
    /// base-case children (vertices and triangles) are built just before
    /// it: holding a childless table any longer is never better, since the
    /// first consumer's step sees the same live set either way and every
    /// step in between holds one table less.
    fn moves(&self, done: u64) -> impl Iterator<Item = (usize, u64, u64)> + '_ {
        let live = self.live(done);
        bits(self.internal & !done).filter_map(move |c| {
            let missing = self.kids[c] & !done;
            (missing & self.internal == 0).then(|| {
                let step =
                    live + bits(missing).map(|b| self.weight[b]).sum::<u64>() + self.weight[c];
                (c, step, done | missing | 1 << c)
            })
        })
    }

    /// The lowest peak over the remaining steps of any children-first
    /// completion of `done`, memoized on `done`.
    fn best(&self, done: u64, memo: &mut HashMap<u64, u64>) -> u64 {
        if done == self.full() {
            return 0;
        }
        if let Some(&peak) = memo.get(&done) {
            return peak;
        }
        let mut best = u64::MAX;
        for (_, step, next) in self.moves(done) {
            if step < best {
                best = best.min(step.max(self.best(next, memo)));
            }
        }
        memo.insert(done, best);
        best
    }

    /// Representative nodes of all classes, in [`ClassDag::min_peak_ids`]
    /// order.
    fn min_peak_order(&self) -> Vec<u32> {
        self.min_peak_ids()
            .into_iter()
            .map(|c| self.rep[c])
            .collect()
    }

    /// A children-first order of all classes whose [`ClassDag::peak`] is
    /// the lowest any such order reaches. The reference (id) order is kept
    /// whenever it is optimal; otherwise each step takes the lowest-id cut
    /// that still completes within the optimum.
    fn min_peak_ids(&self) -> Vec<usize> {
        let reference: Vec<usize> = (0..self.rep.len()).collect();
        if self.internal == 0 {
            return reference;
        }
        let mut memo = HashMap::new();
        let optimum = self.best(0, &mut memo);
        if self.peak(&reference) == optimum {
            return reference;
        }
        let mut done = 0u64;
        let mut order = Vec::with_capacity(self.rep.len());
        while done != self.full() {
            let (c, _, next) = self
                .moves(done)
                .find(|&(_, step, next)| step <= optimum && self.best(next, &mut memo) <= optimum)
                .expect("an optimal completion exists from every step taken");
            order.extend(bits(next & !done & !(1 << c)));
            order.push(c);
            done = next;
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::named::NamedTemplate;

    fn check_invariants(t: &Template, pt: &PartitionTree) {
        let full = crate::canon::full_mask(t.size());
        assert_eq!(pt.root().mask, full, "root spans the template");
        // Every cut node's children partition its mask and preserve roots.
        for node in pt.nodes() {
            assert_eq!(node.size as u32, node.mask.count_ones());
            assert!(node.mask & (1 << node.root) != 0, "root inside mask");
            match node.kind {
                NodeKind::Vertex => assert_eq!(node.size, 1),
                NodeKind::Triangle { partners } => {
                    assert_eq!(node.size, 3);
                    for p in partners {
                        assert!(t.has_edge(node.root, p));
                    }
                    assert!(t.has_edge(partners[0], partners[1]));
                }
                NodeKind::Cut { active, passive } => {
                    let a = &pt.nodes()[active as usize];
                    let p = &pt.nodes()[passive as usize];
                    assert_eq!(a.mask | p.mask, node.mask, "children cover parent");
                    assert_eq!(a.mask & p.mask, 0, "children disjoint");
                    assert_eq!(a.root, node.root, "active keeps the root");
                    assert!(
                        t.has_edge(node.root, p.root),
                        "cut edge joins the two roots"
                    );
                }
            }
        }
        // unique_order: children before parents; one node per class.
        let mut seen = vec![false; pt.num_canon_classes()];
        for &idx in pt.unique_order() {
            let node = &pt.nodes()[idx as usize];
            if let NodeKind::Cut { active, passive } = node.kind {
                for c in [active, passive] {
                    let cid = pt.nodes()[c as usize].canon_id as usize;
                    assert!(seen[cid], "child class emitted before parent");
                }
            }
            assert!(!seen[node.canon_id as usize], "class emitted once");
            seen[node.canon_id as usize] = true;
        }
        assert!(seen[pt.root().canon_id as usize], "root class emitted");
    }

    #[test]
    fn all_named_templates_partition_under_both_strategies() {
        for named in NamedTemplate::all() {
            let t = named.template();
            for strategy in [PartitionStrategy::OneAtATime, PartitionStrategy::Balanced] {
                let pt = PartitionTree::build(&t, strategy)
                    .unwrap_or_else(|e| panic!("{}: {e}", named.name()));
                check_invariants(&t, &pt);
            }
        }
    }

    #[test]
    fn path_one_at_a_time_peels_single_vertices() {
        let t = Template::path(6);
        let pt = PartitionTree::build(&t, PartitionStrategy::OneAtATime).unwrap();
        // Root must be an endpoint and every active child is a single vertex.
        assert!(t.degree(pt.template_root()) == 1);
        for node in pt.nodes() {
            if let NodeKind::Cut { active, .. } = node.kind {
                assert_eq!(pt.nodes()[active as usize].size, 1);
            }
        }
    }

    #[test]
    fn balanced_path_splits_evenly_at_top() {
        let t = Template::path(8);
        let pt = PartitionTree::build(&t, PartitionStrategy::Balanced).unwrap();
        if let NodeKind::Cut { active, passive } = pt.root().kind {
            let a = pt.nodes()[active as usize].size;
            let p = pt.nodes()[passive as usize].size;
            assert_eq!(a + p, 8);
            assert!((a as i32 - p as i32).abs() <= 1, "a={a} p={p}");
        } else {
            panic!("8-path root must be a cut node");
        }
    }

    #[test]
    fn symmetry_sharing_on_u7_2() {
        // Three automorphic legs: classes < nodes.
        let t = NamedTemplate::U7_2.template();
        let pt = PartitionTree::build(&t, PartitionStrategy::OneAtATime).unwrap();
        assert!(
            pt.num_canon_classes() < pt.nodes().len(),
            "automorphic legs should share classes: {} classes / {} nodes",
            pt.num_canon_classes(),
            pt.nodes().len()
        );
    }

    #[test]
    fn triangle_partition_is_base_case() {
        let t = Template::triangle();
        let pt = PartitionTree::build(&t, PartitionStrategy::OneAtATime).unwrap();
        assert_eq!(pt.nodes().len(), 1);
        assert!(matches!(pt.root().kind, NodeKind::Triangle { .. }));
    }

    #[test]
    fn triangle_with_pendant_partitions() {
        let t = Template::from_edges(5, &[(0, 1), (1, 2), (0, 2), (0, 3), (3, 4)]).unwrap();
        for s in [PartitionStrategy::OneAtATime, PartitionStrategy::Balanced] {
            let pt = PartitionTree::build(&t, s).unwrap();
            check_invariants(&t, &pt);
            assert!(pt
                .nodes()
                .iter()
                .any(|n| matches!(n.kind, NodeKind::Triangle { .. })));
        }
    }

    #[test]
    fn triangle_with_two_pendant_corners_fails() {
        // Pendants on two different corners: unsupported per module docs.
        let t = Template::from_edges(5, &[(0, 1), (1, 2), (0, 2), (0, 3), (1, 4)]).unwrap();
        assert_eq!(
            PartitionTree::build(&t, PartitionStrategy::OneAtATime).unwrap_err(),
            PartitionError::NoValidRoot
        );
    }

    #[test]
    fn single_vertex_template_partitions() {
        let t = Template::from_edges(1, &[]).unwrap();
        let pt = PartitionTree::build(&t, PartitionStrategy::Balanced).unwrap();
        assert_eq!(pt.nodes().len(), 1);
        assert!(matches!(pt.root().kind, NodeKind::Vertex));
        assert_eq!(pt.unique_order(), &[0]);
    }

    #[test]
    fn cost_model_prefers_one_at_a_time_on_u12_2() {
        // The paper observes one-at-a-time is faster in practice because of
        // the single-color-set active-child optimization; the raw op model
        // just has to be finite and strategy-dependent here.
        let t = NamedTemplate::U12_2.template();
        let one = PartitionTree::build(&t, PartitionStrategy::OneAtATime).unwrap();
        let bal = PartitionTree::build(&t, PartitionStrategy::Balanced).unwrap();
        assert!(one.estimated_ops(12) > 0);
        assert!(bal.estimated_ops(12) > 0);
    }

    #[test]
    fn peak_live_tables_is_small() {
        // The paper reports <= 4 live tables under its ordering; the
        // min-peak order meets that under one-at-a-time. Balanced trees
        // are bushier and may hold one more.
        for (strategy, bound) in [
            (PartitionStrategy::OneAtATime, 4),
            (PartitionStrategy::Balanced, 5),
        ] {
            for named in NamedTemplate::all() {
                let t = named.template();
                let pt = PartitionTree::build(&t, strategy).unwrap();
                assert!(
                    pt.peak_live_tables() <= bound,
                    "{} {strategy:?}: peak {} tables",
                    named.name(),
                    pt.peak_live_tables()
                );
            }
        }
    }

    #[test]
    fn class_use_counts_cover_order() {
        let t = NamedTemplate::U10_2.template();
        let pt = PartitionTree::build(&t, PartitionStrategy::Balanced).unwrap();
        let counts = pt.class_use_counts();
        assert_eq!(counts.len(), pt.num_canon_classes());
        // The root class is used exactly once (the final sum), unless it
        // also appears as a child somewhere (impossible: it is the largest).
        assert_eq!(counts[pt.root().canon_id as usize], 1);
        // Every emitted class is used at least once.
        for &idx in pt.unique_order() {
            assert!(counts[pt.nodes()[idx as usize].canon_id as usize] >= 1);
        }
    }

    #[test]
    fn labeled_legs_do_not_share_tables() {
        // U7-2 with distinct labels on each leg: no class sharing between
        // the legs.
        let t = Template::spider(&[2, 2, 2])
            .with_labels(vec![0, 1, 1, 2, 2, 3, 3])
            .unwrap();
        let pt = PartitionTree::build(&t, PartitionStrategy::OneAtATime).unwrap();
        let unlabeled =
            PartitionTree::build(&Template::spider(&[2, 2, 2]), PartitionStrategy::OneAtATime)
                .unwrap();
        assert!(pt.num_canon_classes() > unlabeled.num_canon_classes());
    }

    #[test]
    fn deterministic_build() {
        let t = NamedTemplate::U10_2.template();
        let a = PartitionTree::build(&t, PartitionStrategy::OneAtATime).unwrap();
        let b = PartitionTree::build(&t, PartitionStrategy::OneAtATime).unwrap();
        assert_eq!(a.nodes().len(), b.nodes().len());
        assert_eq!(a.unique_order(), b.unique_order());
    }

    /// The order the partition tree was evaluated in before the min-peak
    /// scheduler: an active-then-passive post-order, one node per class.
    /// Frozen here as the reference the scheduler must never lose to and
    /// must reproduce wherever it cannot do better.
    fn post_order_walk(pt: &PartitionTree) -> Vec<u32> {
        fn visit(nodes: &[SubNode], idx: u32, emitted: &mut [bool], order: &mut Vec<u32>) {
            let node = &nodes[idx as usize];
            if emitted[node.canon_id as usize] {
                return;
            }
            if let NodeKind::Cut { active, passive } = node.kind {
                visit(nodes, active, emitted, order);
                visit(nodes, passive, emitted, order);
            }
            if !emitted[node.canon_id as usize] {
                emitted[node.canon_id as usize] = true;
                order.push(idx);
            }
        }
        let mut emitted = vec![false; pt.num_canon_classes()];
        let mut order = Vec::new();
        visit(pt.nodes(), 0, &mut emitted, &mut order);
        order
    }

    /// `C(k, h)`-weighted peak of live tables when `order` is evaluated
    /// the way the engine does: a table is allocated while its children
    /// are live and they are freed after their last consumer is built.
    fn modelled_peak(pt: &PartitionTree, order: &[u32]) -> u64 {
        let k = pt.root().size as usize;
        let weight = |idx: u32| fascia_combin_choose(k, pt.nodes()[idx as usize].size as usize);
        let class = |idx: u32| pt.nodes()[idx as usize].canon_id as usize;
        let mut uses = vec![0u32; pt.num_canon_classes()];
        uses[class(0)] += 1;
        for &idx in order {
            if let NodeKind::Cut { active, passive } = pt.nodes()[idx as usize].kind {
                uses[class(active)] += 1;
                uses[class(passive)] += 1;
            }
        }
        let mut held = vec![0u64; pt.num_canon_classes()];
        let (mut live, mut peak) = (0u64, 0u64);
        for &idx in order {
            held[class(idx)] = weight(idx);
            live += weight(idx);
            peak = peak.max(live);
            if let NodeKind::Cut { active, passive } = pt.nodes()[idx as usize].kind {
                for child in [active, passive] {
                    uses[class(child)] -= 1;
                    if uses[class(child)] == 0 {
                        live -= std::mem::take(&mut held[class(child)]);
                    }
                }
            }
        }
        peak
    }

    /// Minimum of [`modelled_peak`] over every children-first order of
    /// the classes `reps` represent, by exhaustive enumeration (pruned
    /// only by the best complete order found so far).
    fn brute_force_min_peak(pt: &PartitionTree, reps: &[u32]) -> u64 {
        fn go(pt: &PartitionTree, reps: &[u32], order: &mut Vec<u32>, best: &mut u64) {
            if order.len() == reps.len() {
                *best = (*best).min(modelled_peak(pt, order));
                return;
            }
            if modelled_peak(pt, order) >= *best {
                return;
            }
            let class = |idx: u32| pt.nodes()[idx as usize].canon_id;
            let built = |order: &[u32], c: u32| order.iter().any(|&i| class(i) == c);
            for &idx in reps {
                if built(order, class(idx)) {
                    continue;
                }
                if let NodeKind::Cut { active, passive } = pt.nodes()[idx as usize].kind {
                    if !built(order, class(active)) || !built(order, class(passive)) {
                        continue;
                    }
                }
                order.push(idx);
                go(pt, reps, order, best);
                order.pop();
            }
        }
        let mut best = u64::MAX;
        go(pt, reps, &mut Vec::new(), &mut best);
        best
    }

    #[test]
    fn min_peak_order_is_optimal_on_all_small_trees() {
        let mut checked = 0;
        for n in 1..=9 {
            for t in crate::gen::all_free_trees(n) {
                for strategy in [PartitionStrategy::OneAtATime, PartitionStrategy::Balanced] {
                    for root in 0..n as u8 {
                        let Ok(pt) = PartitionTree::build_with_root(&t, root, strategy) else {
                            continue;
                        };
                        check_invariants(&t, &pt);
                        let walk = post_order_walk(&pt);
                        let order = pt.unique_order();
                        let mut reps = order.to_vec();
                        reps.sort_unstable();
                        let mut walk_reps = walk.clone();
                        walk_reps.sort_unstable();
                        assert_eq!(reps, walk_reps, "same representatives");
                        let peak = modelled_peak(&pt, order);
                        let walk_peak = modelled_peak(&pt, &walk);
                        let ctx = format!("n={n} root={root} {strategy:?} {:?}", t.edges());
                        assert_eq!(peak, brute_force_min_peak(&pt, &walk), "{ctx}");
                        assert!(peak <= walk_peak, "{ctx}");
                        if peak == walk_peak {
                            assert_eq!(order, &walk[..], "ties keep the walk: {ctx}");
                        }
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 1000, "{checked} trees checked");
    }

    #[test]
    fn among_named_templates_only_u12_2_changes_order() {
        for named in NamedTemplate::all() {
            let t = named.template();
            for strategy in [PartitionStrategy::OneAtATime, PartitionStrategy::Balanced] {
                for root in 0..t.size() as u8 {
                    let Ok(pt) = PartitionTree::build_with_root(&t, root, strategy) else {
                        continue;
                    };
                    let walk = post_order_walk(&pt);
                    assert!(modelled_peak(&pt, pt.unique_order()) <= modelled_peak(&pt, &walk));
                    if named != NamedTemplate::U12_2 {
                        assert_eq!(pt.unique_order(), &walk[..], "{} root {root}", named.name());
                    }
                }
            }
        }
        // The walk holds the size-4 class while the size-6 and size-7
        // classes are built; the min-peak order holds the shared size-3
        // class instead.
        let pt = PartitionTree::build(
            &NamedTemplate::U12_2.template(),
            PartitionStrategy::OneAtATime,
        )
        .unwrap();
        let c = |h| fascia_combin_choose(12, h);
        let walk_peak = modelled_peak(&pt, &post_order_walk(&pt));
        assert_eq!(walk_peak, c(1) + c(4) + c(6) + c(7));
        assert_eq!(
            modelled_peak(&pt, pt.unique_order()),
            c(1) + c(3) + c(6) + c(7)
        );
    }

    #[test]
    fn build_stays_fast_on_size_20_trees() {
        // Random parent arrays (a fixed LCG) give size-20 trees of every
        // shape from paths to bushes; labeled and unshared variants have
        // the most classes and so the largest downset search.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 33) as usize) % bound
        };
        let mut trees = vec![Template::path(20), Template::star(20)];
        for _ in 0..40 {
            let parents: Vec<u8> = (1..20).map(|v| next(v) as u8).collect();
            trees.push(Template::from_parents(&parents).unwrap());
        }
        let distinct: Vec<u8> = (0..20).collect();
        let labeled: Vec<Template> = trees
            .iter()
            .take(10)
            .map(|t| t.clone().with_labels(distinct.clone()).unwrap())
            .collect();
        trees.extend(labeled);
        // Release builds take under a millisecond; debug ones about ten
        // times that.
        let bound = std::time::Duration::from_millis(if cfg!(debug_assertions) { 25 } else { 5 });
        for t in &trees {
            for strategy in [PartitionStrategy::OneAtATime, PartitionStrategy::Balanced] {
                let start = std::time::Instant::now();
                let pt = PartitionTree::build(t, strategy).unwrap();
                let built = start.elapsed();
                let start = std::time::Instant::now();
                let unshared = pt.clone().into_unshared();
                let rescheduled = start.elapsed();
                assert!(
                    built.max(rescheduled) < bound,
                    "{built:?} / {rescheduled:?} on {:?}",
                    t.edges()
                );
                check_invariants(t, &pt);
                check_invariants(t, &unshared);
                let walk_peak = modelled_peak(&pt, &post_order_walk(&pt));
                assert!(modelled_peak(&pt, pt.unique_order()) <= walk_peak);
                assert_eq!(unshared.unique_order().len(), unshared.nodes().len());
            }
        }
    }
}
