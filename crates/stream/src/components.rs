//! Component membership of a frozen snapshot.
//!
//! [`SnapshotCell::publish`](crate::SnapshotCell::publish) labels every
//! freeze once, outside the cell's lock, with one union-find pass over
//! the CSR (union-by-size, path compression): O(m α(n)), no traversal
//! scratch.

use graphct_core::{CsrGraph, VertexId};

/// Component membership of one graph: canonical min-id labels (as
/// [`graphct_kernels::connected_components`] assigns them) plus
/// per-label sizes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Membership {
    /// `colors[v]` is the component label of vertex `v`.
    pub colors: Vec<VertexId>,
    /// `sizes[c]` is the population of component label `c` (zero for
    /// non-label ids).
    pub sizes: Vec<usize>,
}

impl Membership {
    /// The membership of `graph`: one union per edge, then one sweep in
    /// ascending vertex order, so the first vertex met for a root is its
    /// component's minimum id (the label) and the root's union-by-size
    /// count is the component's size.
    pub(crate) fn of(graph: &CsrGraph) -> Self {
        let n = graph.num_vertices();
        let mut uf = UnionFind::new(n);
        for (u, v) in graph.iter_arcs() {
            if u < v {
                uf.union(u, v);
            }
        }
        let mut label_of_root = vec![VertexId::MAX; n];
        let mut colors = Vec::with_capacity(n);
        let mut sizes = vec![0usize; n];
        for v in 0..n as VertexId {
            let r = uf.find(v) as usize;
            if label_of_root[r] == VertexId::MAX {
                label_of_root[r] = v;
                sizes[v as usize] = uf.size[r] as usize;
            }
            colors.push(label_of_root[r]);
        }
        Self { colors, sizes }
    }

    /// Components with at least one edge.  In a simple graph a vertex
    /// is isolated exactly when its component is a singleton, so these
    /// are the labels of size ≥ 2.
    pub fn active_components(&self) -> usize {
        self.sizes.iter().filter(|&&s| s >= 2).count()
    }
}

/// Union-find over the vertex set.
struct UnionFind {
    parent: Vec<VertexId>,
    size: Vec<u32>,
}

impl UnionFind {
    /// `n` singleton components.
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n as VertexId).collect(),
            size: vec![1; n],
        }
    }

    /// Representative of `v`'s component (with path compression).
    fn find(&mut self, v: VertexId) -> VertexId {
        let mut root = v;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        let mut cur = v;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    /// Merge the components of `u` and `v`, the smaller under the larger.
    fn union(&mut self, u: VertexId, v: VertexId) {
        let mut ru = self.find(u);
        let mut rv = self.find(v);
        if ru == rv {
            return;
        }
        if self.size[ru as usize] < self.size[rv as usize] {
            std::mem::swap(&mut ru, &mut rv);
        }
        self.parent[rv as usize] = ru;
        self.size[ru as usize] += self.size[rv as usize];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphct_core::builder::build_undirected_simple;
    use graphct_core::EdgeList;

    #[test]
    fn labels_match_static_kernel() {
        let mut x = 3u64;
        let mut edges = Vec::new();
        for _ in 0..300 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(7);
            let u = ((x >> 32) % 200) as u32;
            x = x.wrapping_mul(6364136223846793005).wrapping_add(7);
            let v = ((x >> 32) % 200) as u32;
            edges.push((u, v));
        }
        let g = build_undirected_simple(&EdgeList::from_pairs(edges)).unwrap();
        let membership = Membership::of(&g);
        assert_eq!(membership.colors, graphct_kernels::connected_components(&g));
        let summary = graphct_kernels::components::ComponentSummary::compute(&g);
        let labels = membership.sizes.iter().filter(|&&s| s > 0).count();
        assert_eq!(labels, summary.num_components());
        assert_eq!(membership.sizes.iter().sum::<usize>(), g.num_vertices());
    }

    #[test]
    fn empty_structure() {
        assert_eq!(
            Membership::of(&CsrGraph::empty(0, false)),
            Membership::default()
        );
    }
}
