//! Per-vertex clustering coefficients.
//!
//! One of GraphCT's top-level kernels ("finding the per-vertex clustering
//! coefficients", paper §IV-A; the streaming variant is the authors'
//! MTAAP 2010 case study, ref. [10]).  The local clustering coefficient
//! of `v` is the fraction of its neighbor pairs that are themselves
//! connected:
//!
//! ```text
//! C(v) = 2 · tri(v) / (deg(v) · (deg(v) − 1))
//! ```
//!
//! Triangles are counted by the forward oriented-merge kernel in
//! [`crate::triangles`] (each triangle found exactly once); the original
//! sorted-intersection counter survives as
//! [`naive_triangle_counts`] — the oracle the forward kernel is gated
//! against.  All of it requires an undirected **simple** graph with
//! strictly ascending adjacency lists — the merge walks silently
//! undercount on unsorted lists and overcount wedges through self-loops
//! — so the kernels validate up front (one cached-witness load for
//! builder/snapshot graphs, one memoized scan otherwise) and reject bad
//! input with a [`GraphError`] instead of returning wrong numbers.
//!
//! Callers that need coefficients *and* transitivity should use
//! [`clustering_summary`], which derives both from a single counting
//! pass instead of repeating the traversal per statistic.

use graphct_core::{GraphError, GraphView, VertexId};
use rayon::prelude::*;

/// Number of elements common to an ascending-sorted slice and an
/// ascending-sorted iterator.
fn intersection_size<I: Iterator<Item = VertexId>>(a: &[VertexId], b: I) -> usize {
    let mut i = 0;
    let mut count = 0;
    for t in b {
        while i < a.len() && a[i] < t {
            i += 1;
        }
        if i == a.len() {
            break;
        }
        if a[i] == t {
            count += 1;
            i += 1;
        }
    }
    count
}

/// Reject adjacency structures the triangle kernels would silently
/// miscount: self-loops and lists that are not strictly ascending
/// (which also catches duplicate arcs).  Such graphs are constructible
/// through `CsrGraph::from_raw_parts`, which validates offsets and
/// target ranges but not neighbor ordering.
///
/// The check itself is [`GraphView::is_sorted_simple`]: one relaxed
/// atomic load for graphs whose provenance already witnessed the
/// invariant (builder output, streaming snapshots, relabeled views),
/// one memoized parallel scan for everything else.
pub(crate) fn validate_sorted_simple<G: GraphView>(graph: &G) -> Result<(), GraphError> {
    if graph.is_sorted_simple() {
        Ok(())
    } else {
        Err(GraphError::InvalidArgument(
            "clustering kernels require a simple graph with sorted adjacency \
             (strictly ascending neighbor lists, no self-loops)"
                .into(),
        ))
    }
}

/// Triangles incident to each vertex (each triangle counted once per
/// member vertex).
///
/// Delegates to the forward oriented-merge kernel
/// ([`crate::triangles::forward_triangle_counts`]), which discovers
/// each triangle exactly once instead of six times.
pub fn triangle_counts<G: GraphView>(graph: &G) -> Result<Vec<usize>, GraphError> {
    crate::triangles::forward_triangle_counts(graph)
}

/// The original sorted-intersection triangle counter: every triangle
/// `v-a-b` is found at each member vertex twice (once via `a`, once via
/// `b`).  Kept as the reference oracle the forward kernel must match
/// bit-identically (see the triadic equivalence tests).
pub fn naive_triangle_counts<G: GraphView>(graph: &G) -> Result<Vec<usize>, GraphError> {
    if graph.is_directed() {
        return Err(GraphError::InvalidArgument(
            "triangle counting requires an undirected graph".into(),
        ));
    }
    validate_sorted_simple(graph)?;
    crate::telemetry::TRIANGLE_PASSES.incr();
    let n = graph.num_vertices();
    Ok((0..n as VertexId)
        .into_par_iter()
        .map(|v| {
            let nv: Vec<VertexId> = graph.neighbors_iter(v).collect();
            let double: usize = nv
                .iter()
                .map(|&u| intersection_size(&nv, graph.neighbors_iter(u)))
                .sum();
            double / 2
        })
        .collect())
}

/// Coefficients derived from a per-vertex triangle vector.
fn coefficients_from<G: GraphView>(graph: &G, tri: &[usize]) -> Vec<f64> {
    tri.par_iter()
        .enumerate()
        .map(|(v, &t)| {
            let d = graph.degree(v as VertexId);
            if d < 2 {
                0.0
            } else {
                2.0 * t as f64 / (d * (d - 1)) as f64
            }
        })
        .collect()
}

/// Transitivity derived from a per-vertex triangle vector.
fn transitivity_from<G: GraphView>(graph: &G, tri: &[usize]) -> f64 {
    // Per-vertex triangle incidences sum to 3 · #triangles.
    let closed: usize = tri.par_iter().sum();
    let wedges: usize = (0..graph.num_vertices() as VertexId)
        .into_par_iter()
        .map(|v| {
            let d = graph.degree(v);
            d * d.saturating_sub(1) / 2
        })
        .sum();
    if wedges == 0 {
        0.0
    } else {
        closed as f64 / wedges as f64
    }
}

/// Per-vertex triangles, local coefficients, and global transitivity
/// from **one** counting pass.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusteringSummary {
    /// Triangles incident to each vertex.
    pub triangles: Vec<usize>,
    /// Local clustering coefficient per vertex (0 for degree < 2).
    pub coefficients: Vec<f64>,
    /// Global clustering coefficient (transitivity).
    pub global: f64,
}

/// Compute the full clustering summary with a single triangle-counting
/// pass.  Numerically identical to calling [`clustering_coefficients`]
/// and [`global_clustering`] separately, at half the traversal cost —
/// the fix for the old pattern where each statistic re-ran the counter.
pub fn clustering_summary<G: GraphView>(graph: &G) -> Result<ClusteringSummary, GraphError> {
    let triangles = triangle_counts(graph)?;
    let coefficients = coefficients_from(graph, &triangles);
    let global = transitivity_from(graph, &triangles);
    Ok(ClusteringSummary {
        triangles,
        coefficients,
        global,
    })
}

/// Per-vertex local clustering coefficients. Vertices of degree < 2 get
/// coefficient 0.
pub fn clustering_coefficients<G: GraphView>(graph: &G) -> Result<Vec<f64>, GraphError> {
    let tri = triangle_counts(graph)?;
    Ok(coefficients_from(graph, &tri))
}

/// Global clustering coefficient (transitivity):
/// `3 · #triangles / #open-or-closed wedges`.
pub fn global_clustering<G: GraphView>(graph: &G) -> Result<f64, GraphError> {
    let tri = triangle_counts(graph)?;
    Ok(transitivity_from(graph, &tri))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphct_core::builder::build_undirected_simple;
    use graphct_core::CsrGraph;
    use graphct_core::EdgeList;

    fn graph(edges: &[(u32, u32)]) -> CsrGraph {
        build_undirected_simple(&EdgeList::from_pairs(edges.to_vec())).unwrap()
    }

    #[test]
    fn triangle_is_fully_clustered() {
        let g = graph(&[(0, 1), (1, 2), (0, 2)]);
        assert_eq!(triangle_counts(&g).unwrap(), vec![1, 1, 1]);
        assert_eq!(clustering_coefficients(&g).unwrap(), vec![1.0, 1.0, 1.0]);
        assert!((global_clustering(&g).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn star_has_zero_clustering() {
        let g = graph(&[(0, 1), (0, 2), (0, 3)]);
        assert_eq!(triangle_counts(&g).unwrap(), vec![0; 4]);
        assert_eq!(clustering_coefficients(&g).unwrap(), vec![0.0; 4]);
        assert_eq!(global_clustering(&g).unwrap(), 0.0);
    }

    #[test]
    fn complete_graph_k5() {
        let mut edges = Vec::new();
        for i in 0..5u32 {
            for j in (i + 1)..5 {
                edges.push((i, j));
            }
        }
        let g = graph(&edges);
        // Each vertex participates in C(4,2) = 6 triangles.
        assert_eq!(triangle_counts(&g).unwrap(), vec![6; 5]);
        assert!(clustering_coefficients(&g)
            .unwrap()
            .iter()
            .all(|&c| (c - 1.0).abs() < 1e-12));
    }

    #[test]
    fn triangle_with_pendant() {
        // Triangle 0-1-2 + pendant 3 on 0.
        let g = graph(&[(0, 1), (1, 2), (0, 2), (0, 3)]);
        let cc = clustering_coefficients(&g).unwrap();
        assert!((cc[0] - 1.0 / 3.0).abs() < 1e-12); // 1 of 3 pairs linked
        assert!((cc[1] - 1.0).abs() < 1e-12);
        assert!((cc[2] - 1.0).abs() < 1e-12);
        assert_eq!(cc[3], 0.0); // degree 1
                                // transitivity: 3 triangles-incidences... closed = 3, wedges = 3+1+1+0 = 5
        assert!((global_clustering(&g).unwrap() - 3.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn path_has_no_triangles() {
        let g = graph(&[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(triangle_counts(&g).unwrap(), vec![0; 4]);
        assert_eq!(global_clustering(&g).unwrap(), 0.0);
    }

    #[test]
    fn directed_rejected() {
        let d = graphct_core::builder::build_directed_simple(&EdgeList::from_pairs(vec![(0, 1)]))
            .unwrap();
        assert!(triangle_counts(&d).is_err());
        assert!(clustering_coefficients(&d).is_err());
        assert!(global_clustering(&d).is_err());
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty(0, false);
        assert!(triangle_counts(&g).unwrap().is_empty());
        assert_eq!(global_clustering(&g).unwrap(), 0.0);
    }

    #[test]
    fn unsorted_adjacency_rejected() {
        // Triangle 0-1-2 but vertex 0's list is descending: [2, 1].
        // `from_raw_parts` accepts this (offsets and target ranges are
        // valid); the old intersection walk silently undercounted it.
        let g = CsrGraph::from_raw_parts(vec![0, 2, 4, 6], vec![2, 1, 0, 2, 0, 1], false).unwrap();
        let err = triangle_counts(&g).unwrap_err();
        assert!(err.to_string().contains("sorted"), "got: {err}");
        assert!(clustering_coefficients(&g).is_err());
        assert!(global_clustering(&g).is_err());
    }

    #[test]
    fn self_loop_rejected() {
        // Vertex 0 carries a self-loop alongside a real edge to 1.
        let g = CsrGraph::from_raw_parts(vec![0, 2, 3], vec![0, 1, 0], false).unwrap();
        let err = triangle_counts(&g).unwrap_err();
        assert!(err.to_string().contains("self-loops"), "got: {err}");
    }

    #[test]
    fn duplicate_arcs_rejected() {
        // Vertex 0 lists neighbor 1 twice: non-strictly-ascending.
        let g = CsrGraph::from_raw_parts(vec![0, 2, 4], vec![1, 1, 0, 0], false).unwrap();
        assert!(triangle_counts(&g).is_err());
    }

    #[test]
    fn sorted_check_accepts_builder_output() {
        let g = graph(&[(0, 1), (1, 2), (0, 2)]);
        assert!(validate_sorted_simple(&g).is_ok());
    }

    #[test]
    fn intersection_helper() {
        assert_eq!(intersection_size(&[1, 3, 5], [2, 3, 5, 7].into_iter()), 2);
        assert_eq!(intersection_size(&[], [1].into_iter()), 0);
        assert_eq!(intersection_size(&[1, 2], [3, 4].into_iter()), 0);
    }

    #[test]
    fn naive_and_forward_agree() {
        let g = graph(&[(0, 1), (1, 2), (0, 2), (2, 3), (3, 0), (1, 3), (3, 4)]);
        assert_eq!(
            naive_triangle_counts(&g).unwrap(),
            triangle_counts(&g).unwrap()
        );
        let d = graphct_core::builder::build_directed_simple(&EdgeList::from_pairs(vec![(0, 1)]))
            .unwrap();
        assert!(naive_triangle_counts(&d).is_err());
    }

    #[test]
    fn summary_matches_separate_kernels() {
        let g = graph(&[(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (4, 0)]);
        let summary = clustering_summary(&g).unwrap();
        assert_eq!(summary.triangles, triangle_counts(&g).unwrap());
        assert_eq!(summary.coefficients, clustering_coefficients(&g).unwrap());
        assert_eq!(summary.global, global_clustering(&g).unwrap());
    }

    /// A [`GraphView`] shim that meters adjacency traffic: every
    /// `neighbors_iter` call is one probe.  Deterministic regardless of
    /// thread count, unlike asserting on the global trace counters.
    struct MeteredView<'g> {
        inner: &'g CsrGraph,
        probes: std::sync::atomic::AtomicUsize,
    }

    impl<'g> MeteredView<'g> {
        fn new(inner: &'g CsrGraph) -> Self {
            Self {
                inner,
                probes: std::sync::atomic::AtomicUsize::new(0),
            }
        }

        fn probes(&self) -> usize {
            self.probes.load(std::sync::atomic::Ordering::Relaxed)
        }
    }

    impl GraphView for MeteredView<'_> {
        type Neighbors<'a>
            = std::iter::Copied<std::slice::Iter<'a, VertexId>>
        where
            Self: 'a;
        fn num_vertices(&self) -> usize {
            self.inner.num_vertices()
        }
        fn num_arcs(&self) -> usize {
            self.inner.num_arcs()
        }
        fn is_directed(&self) -> bool {
            self.inner.is_directed()
        }
        fn degree(&self, v: VertexId) -> usize {
            self.inner.degree(v)
        }
        fn neighbors_iter(&self, v: VertexId) -> Self::Neighbors<'_> {
            self.probes
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.neighbors(v).iter().copied()
        }
    }

    #[test]
    fn summary_runs_exactly_one_counting_pass() {
        // The waste bug this guards against: computing coefficients and
        // transitivity by separate kernel calls runs the triangle
        // counter twice.  The summary must cost exactly one pass — i.e.
        // half the adjacency probes of the two-call pattern.
        let g = graph(&[(0, 1), (1, 2), (0, 2), (2, 3), (3, 0), (1, 3), (3, 4)]);

        let metered = MeteredView::new(&g);
        let summary = clustering_summary(&metered).unwrap();
        let one_pass = metered.probes();
        assert!(one_pass > 0, "the counting pass must touch adjacency");

        let metered = MeteredView::new(&g);
        let coefficients = clustering_coefficients(&metered).unwrap();
        let global = global_clustering(&metered).unwrap();
        let two_pass = metered.probes();

        assert_eq!(two_pass, 2 * one_pass, "summary must halve the traversal");
        assert_eq!(summary.coefficients, coefficients);
        assert_eq!(summary.global, global);
    }
}
