//! Incremental connected components under edge insertions.
//!
//! Union-find with union-by-size and path compression tracks the
//! component structure as edges stream in — O(α(n)) amortized per
//! insertion.  Deletions may split components, which union-find cannot
//! express; [`IncrementalComponents::rebuild`] recomputes from a
//! supplied graph, the standard recourse in the streaming systems of
//! the paper's era (the static kernel is fast enough that batched
//! rebuilds amortize well).

use graphct_core::{CsrGraph, VertexId};

/// Union-find over the vertex set.
#[derive(Debug, Clone)]
pub struct IncrementalComponents {
    parent: Vec<VertexId>,
    size: Vec<u32>,
    num_components: usize,
}

impl IncrementalComponents {
    /// `n` singleton components.
    pub fn new(n: usize) -> Self {
        Self {
            parent: (0..n as VertexId).collect(),
            size: vec![1; n],
            num_components: n,
        }
    }

    /// Initialize from a static snapshot (one union per edge).
    pub fn from_csr(graph: &CsrGraph) -> Self {
        let mut uf = Self::new(graph.num_vertices());
        for (u, v) in graph.iter_arcs() {
            if u < v {
                uf.union(u, v);
            }
        }
        uf
    }

    /// Number of vertices tracked.
    pub fn num_vertices(&self) -> usize {
        self.parent.len()
    }

    /// Current number of components.
    pub fn num_components(&self) -> usize {
        self.num_components
    }

    /// Representative of `v`'s component (with path compression).
    pub fn find(&mut self, v: VertexId) -> VertexId {
        let mut root = v;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        // Compress.
        let mut cur = v;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    /// Size of `v`'s component.
    pub fn component_size(&mut self, v: VertexId) -> usize {
        let r = self.find(v);
        self.size[r as usize] as usize
    }

    /// `true` when `u` and `v` share a component.
    pub fn connected(&mut self, u: VertexId, v: VertexId) -> bool {
        self.find(u) == self.find(v)
    }

    /// Record edge `(u, v)`; returns `true` when it merged two
    /// components.
    pub fn union(&mut self, u: VertexId, v: VertexId) -> bool {
        let mut ru = self.find(u);
        let mut rv = self.find(v);
        if ru == rv {
            return false;
        }
        if self.size[ru as usize] < self.size[rv as usize] {
            std::mem::swap(&mut ru, &mut rv);
        }
        self.parent[rv as usize] = ru;
        self.size[ru as usize] += self.size[rv as usize];
        self.num_components -= 1;
        true
    }

    /// Re-derive the structure from a graph (after deletions).
    pub fn rebuild(&mut self, graph: &CsrGraph) {
        let _span =
            graphct_trace::span!("stream_components_rebuild", vertices = graph.num_vertices());
        *self = Self::from_csr(graph);
    }

    /// A canonical labeling compatible with
    /// [`graphct_kernels::connected_components`] — every vertex labeled
    /// by the minimum vertex id in its component — plus each label's
    /// population, in one sweep: vertices are visited in ascending id
    /// order, so the first one met for a root is its minimum, and the
    /// root's union-by-size count is the component's size.
    pub fn labels(&mut self) -> Membership {
        let n = self.parent.len();
        let mut label_of_root = vec![VertexId::MAX; n];
        let mut colors = Vec::with_capacity(n);
        let mut sizes = vec![0usize; n];
        for v in 0..n as VertexId {
            let r = self.find(v) as usize;
            if label_of_root[r] == VertexId::MAX {
                label_of_root[r] = v;
                sizes[v as usize] = self.size[r] as usize;
            }
            colors.push(label_of_root[r]);
        }
        Membership { colors, sizes }
    }
}

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
    /// Components with at least one edge.  In a simple graph a vertex
    /// is isolated exactly when its component is a singleton, so these
    /// are the labels of size ≥ 2.
    pub fn active_components(&self) -> usize {
        self.sizes.iter().filter(|&&s| s >= 2).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphct_core::builder::build_undirected_simple;
    use graphct_core::EdgeList;

    #[test]
    fn singletons_then_unions() {
        let mut uf = IncrementalComponents::new(5);
        assert_eq!(uf.num_components(), 5);
        assert!(uf.union(0, 1));
        assert!(uf.union(2, 3));
        assert!(!uf.union(1, 0), "repeat union is a no-op");
        assert_eq!(uf.num_components(), 3);
        assert!(uf.connected(0, 1));
        assert!(!uf.connected(0, 2));
        assert!(uf.union(1, 2));
        assert!(uf.connected(0, 3));
        assert_eq!(uf.component_size(3), 4);
        assert_eq!(uf.component_size(4), 1);
    }

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
        let g = build_undirected_simple(&EdgeList::from_pairs(edges.clone())).unwrap();
        // Stream the edges in one at a time.
        let mut uf = IncrementalComponents::new(g.num_vertices());
        for &(u, v) in &edges {
            if u != v {
                uf.union(u, v);
            }
        }
        let membership = uf.labels();
        assert_eq!(membership.colors, graphct_kernels::connected_components(&g));
        // And the bulk constructor agrees.
        let mut uf2 = IncrementalComponents::from_csr(&g);
        assert_eq!(uf2.labels(), membership);
        assert_eq!(
            uf.num_components(),
            graphct_kernels::components::ComponentSummary::compute(&g).num_components()
        );
    }

    #[test]
    fn rebuild_after_deletion() {
        // 0-1-2 chain; delete (1,2) and rebuild.
        let mut sg = crate::StreamingGraph::new(3);
        sg.insert_edge(0, 1).unwrap();
        sg.insert_edge(1, 2).unwrap();
        let mut uf = IncrementalComponents::from_csr(&sg.snapshot());
        assert_eq!(uf.num_components(), 1);
        sg.delete_edge(1, 2).unwrap();
        uf.rebuild(&sg.snapshot());
        assert_eq!(uf.num_components(), 2);
        assert!(!uf.connected(0, 2));
    }

    #[test]
    fn empty_structure() {
        let mut uf = IncrementalComponents::new(0);
        assert_eq!(uf.num_components(), 0);
        assert_eq!(uf.labels(), Membership::default());
    }
}
