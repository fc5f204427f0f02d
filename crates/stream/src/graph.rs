//! The dynamic undirected graph under batched updates.

use graphct_core::{CsrGraph, GraphError, VertexId};

/// One edge update in a stream batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeUpdate {
    /// Insert the undirected edge `(u, v)`.
    Insert(VertexId, VertexId),
    /// Delete the undirected edge `(u, v)`.
    Delete(VertexId, VertexId),
}

/// An undirected simple dynamic graph.
///
/// Adjacency lists are kept **sorted**, so an update is a binary search
/// and a [`CsrGraph`] snapshot is a flat copy.  Self-loops and
/// duplicate edges are rejected at the update level (the static
/// builder's `Dedup`/`Drop` policies, enforced incrementally).
#[derive(Debug, Clone, Default)]
pub struct StreamingGraph {
    adjacency: Vec<Vec<VertexId>>,
    num_edges: usize,
    /// Vertices of degree ≥ 1, kept as degrees cross 0 ↔ 1.
    num_active: usize,
}

impl StreamingGraph {
    /// An empty graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        Self {
            adjacency: vec![Vec::new(); n],
            num_edges: 0,
            num_active: 0,
        }
    }

    /// Start from a static snapshot.
    pub fn from_csr(graph: &CsrGraph) -> Result<Self, GraphError> {
        if graph.is_directed() {
            return Err(GraphError::InvalidArgument(
                "streaming graph is undirected".into(),
            ));
        }
        // The update path enforces simplicity incrementally (sorted
        // lists, no loops, no duplicates); seeding from a graph that
        // violates it would silently corrupt the edge accounting and
        // every later binary-search update.  The check is the cached
        // sorted-simple witness — free for builder/snapshot graphs.
        if !graph.is_sorted_simple() {
            return Err(GraphError::InvalidArgument(
                "streaming graph requires a simple graph with sorted adjacency \
                 (strictly ascending neighbor lists, no self-loops)"
                    .into(),
            ));
        }
        let n = graph.num_vertices();
        let adjacency: Vec<Vec<VertexId>> = (0..n as VertexId)
            .map(|v| graph.neighbors(v).to_vec())
            .collect();
        let num_active = adjacency.iter().filter(|nb| !nb.is_empty()).count();
        Ok(Self {
            adjacency,
            num_edges: graph.num_edges(),
            num_active,
        })
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Number of vertices with at least one edge.
    pub fn num_active_vertices(&self) -> usize {
        self.num_active
    }

    /// Degree of `v`.
    pub fn degree(&self, v: VertexId) -> usize {
        self.adjacency[v as usize].len()
    }

    /// Sorted neighbors of `v`.
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.adjacency[v as usize]
    }

    /// `true` if the edge exists.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.adjacency
            .get(u as usize)
            .is_some_and(|nb| nb.binary_search(&v).is_ok())
    }

    /// Grow the vertex set to at least `n`.
    pub fn ensure_vertices(&mut self, n: usize) {
        if n > self.adjacency.len() {
            self.adjacency.resize(n, Vec::new());
        }
    }

    fn check(&self, u: VertexId, v: VertexId) -> Result<(), GraphError> {
        let n = self.adjacency.len() as u64;
        if (u as u64) >= n || (v as u64) >= n {
            return Err(GraphError::VertexOutOfRange {
                vertex: u.max(v) as u64,
                num_vertices: n,
            });
        }
        if u == v {
            return Err(GraphError::InvalidArgument(
                "self-loops are not allowed in the streaming graph".into(),
            ));
        }
        Ok(())
    }

    /// Insert edge `(u, v)`.  Returns `Ok(true)` if the edge was new,
    /// `Ok(false)` if it already existed (a duplicate mention — ignored,
    /// like the static ingest's dedup).
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> Result<bool, GraphError> {
        self.check(u, v)?;
        match self.adjacency[u as usize].binary_search(&v) {
            Ok(_) => Ok(false),
            Err(pos_u) => {
                self.adjacency[u as usize].insert(pos_u, v);
                let pos_v = self.adjacency[v as usize]
                    .binary_search(&u)
                    .expect_err("adjacency must be consistent");
                self.adjacency[v as usize].insert(pos_v, u);
                self.num_edges += 1;
                self.num_active += usize::from(self.adjacency[u as usize].len() == 1)
                    + usize::from(self.adjacency[v as usize].len() == 1);
                Ok(true)
            }
        }
    }

    /// Delete edge `(u, v)`.  Returns `Ok(true)` if it was present.
    pub fn delete_edge(&mut self, u: VertexId, v: VertexId) -> Result<bool, GraphError> {
        self.check(u, v)?;
        match self.adjacency[u as usize].binary_search(&v) {
            Err(_) => Ok(false),
            Ok(pos_u) => {
                self.adjacency[u as usize].remove(pos_u);
                let pos_v = self.adjacency[v as usize]
                    .binary_search(&u)
                    .expect("adjacency must be consistent");
                self.adjacency[v as usize].remove(pos_v);
                self.num_edges -= 1;
                self.num_active -= usize::from(self.adjacency[u as usize].is_empty())
                    + usize::from(self.adjacency[v as usize].is_empty());
                Ok(true)
            }
        }
    }

    /// Snapshot the current structure as a static [`CsrGraph`].
    ///
    /// This is the query plane's freeze path, so it is kept cheap: the
    /// adjacency lists are maintained sorted and loop/duplicate-free by
    /// every update, and the flat copy preserves that order, so the CSR
    /// is assembled through [`CsrGraph::from_simple_sorted_parts`] — no
    /// re-sort, no re-validation scan (the snapshot carries a pre-seeded
    /// sorted-simple witness, so clustering/triangle queries skip theirs
    /// too), and no transient allocation beyond the exact-sized result
    /// buffers themselves (asserted by `tests/snapshot_memory.rs`).
    pub fn snapshot(&self) -> CsrGraph {
        let mut offsets = Vec::with_capacity(self.adjacency.len() + 1);
        let mut targets = Vec::with_capacity(2 * self.num_edges);
        offsets.push(0);
        for nb in &self.adjacency {
            targets.extend_from_slice(nb);
            offsets.push(targets.len());
        }
        CsrGraph::from_simple_sorted_parts(offsets, targets, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphct_core::builder::build_undirected_simple;
    use graphct_core::EdgeList;

    #[test]
    fn insert_delete_roundtrip() {
        let mut g = StreamingGraph::new(4);
        assert!(g.insert_edge(0, 1).unwrap());
        assert!(g.insert_edge(1, 2).unwrap());
        assert!(!g.insert_edge(0, 1).unwrap(), "duplicate ignored");
        assert!(!g.insert_edge(1, 0).unwrap(), "reverse duplicate ignored");
        assert_eq!((g.num_edges(), g.num_active_vertices()), (2, 3));
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
        assert!(g.delete_edge(0, 1).unwrap());
        assert!(!g.delete_edge(0, 1).unwrap());
        assert_eq!((g.num_edges(), g.num_active_vertices()), (1, 2));
        assert!(!g.has_edge(0, 1));
        g.delete_edge(2, 1).unwrap();
        assert_eq!(g.num_active_vertices(), 0);
    }

    #[test]
    fn rejects_loops_and_out_of_range() {
        let mut g = StreamingGraph::new(3);
        assert!(g.insert_edge(1, 1).is_err());
        assert!(g.insert_edge(0, 9).is_err());
        assert!(g.delete_edge(9, 0).is_err());
    }

    #[test]
    fn adjacency_stays_sorted() {
        let mut g = StreamingGraph::new(10);
        for &v in &[7u32, 2, 9, 4, 1] {
            g.insert_edge(0, v).unwrap();
        }
        assert_eq!(g.neighbors(0), &[1, 2, 4, 7, 9]);
        g.delete_edge(0, 4).unwrap();
        assert_eq!(g.neighbors(0), &[1, 2, 7, 9]);
    }

    #[test]
    fn snapshot_matches_static_builder() {
        let pairs = vec![(0u32, 1u32), (1, 2), (2, 3), (0, 3), (1, 3)];
        let mut g = StreamingGraph::new(4);
        for &(u, v) in &pairs {
            g.insert_edge(u, v).unwrap();
        }
        let snap = g.snapshot();
        let built = build_undirected_simple(&EdgeList::from_pairs(pairs)).unwrap();
        assert_eq!(snap, built);
    }

    #[test]
    fn from_csr_and_back() {
        let built = build_undirected_simple(&EdgeList::from_pairs(vec![(0, 1), (1, 2)])).unwrap();
        let mut g = StreamingGraph::from_csr(&built).unwrap();
        assert_eq!(g.snapshot(), built);
        g.ensure_vertices(4);
        assert_eq!(g.num_active_vertices(), 3);
        let directed =
            graphct_core::builder::build_directed_simple(&EdgeList::from_pairs(vec![(0, 1)]))
                .unwrap();
        assert!(StreamingGraph::from_csr(&directed).is_err());
    }

    #[test]
    fn ensure_vertices_grows() {
        let mut g = StreamingGraph::new(1);
        g.ensure_vertices(5);
        assert_eq!(g.num_vertices(), 5);
        g.insert_edge(0, 4).unwrap();
        g.ensure_vertices(2); // no shrink
        assert_eq!(g.num_vertices(), 5);
    }
}
