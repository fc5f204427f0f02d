//! The triadic engine: forward triangle counting and the directed
//! triad census.
//!
//! GraphCT's clustering kernels (paper §IV-A) are built on triangle
//! counting, and the naive sorted-intersection counter touches every
//! triangle **six** times (twice per member vertex).  The forward
//! counter here orients each undirected edge from its higher-id to its
//! lower-id endpoint and merges *prefix* lists, so every triangle
//! `a < b < c` is discovered exactly once — at `v = c`, `u = b`,
//! `w = a`.  Because adjacency lists are sorted ascending, the
//! lower-id neighbors of a vertex are a contiguous prefix of its list:
//! no oriented copy of the graph is materialized, the kernel walks
//! sub-slices of the CSR it was handed.
//!
//! Orientation quality is inherited from the id layout.  Under a
//! degree-descending relabel (the reorder engine's `by_degree`), hubs
//! get the smallest ids, prefix lists stay short, and the merge work
//! drops toward the classic `O(m^1.5)` bound — which is why
//! `graphct triangles --reorder degree` is a genuine speedup, not a
//! relabeling no-op.
//!
//! The directed side is the Holland–Leinhardt **triad census**: every
//! 3-vertex subgraph of a directed graph falls into one of 16 isomorphism
//! classes (003, 012, 102, 021D/U/C, 111D/U, 030T/C, 201, 120D/U/C,
//! 210, 300).  The census is computed with the Batagelj–Mrvar
//! linked-pair algorithm: only triads containing at least one arc are
//! enumerated, dyad-plus-isolate triads are counted arithmetically, and
//! the empty class 003 is recovered by subtraction from `C(n, 3)`.

use crate::telemetry::{TRIAD_CENSUS_PASSES, TRIANGLES_FOUND, TRIANGLE_PASSES};
use graphct_core::{CsrGraph, GraphError, GraphView, VertexId};
use graphct_mt::AtomicUsizeArray;
use rayon::prelude::*;

/// Everything one forward pass learns about the undirected triangle
/// structure of a graph.
#[derive(Debug, Clone, PartialEq)]
pub struct TriangleStats {
    /// Triangles incident to each vertex (each triangle counted once
    /// per member vertex, so the sum is `3 × total`).
    pub per_vertex: Vec<usize>,
    /// Triangles through each stored arc, indexed like the CSR target
    /// array; the two arcs of an edge carry the same count.
    pub per_arc: Vec<usize>,
    /// Unique triangles in the graph.
    pub total: usize,
    /// Open-or-closed wedges: `Σ_v C(deg(v), 2)`.
    pub wedges: usize,
}

impl TriangleStats {
    /// Global clustering coefficient (transitivity):
    /// `3 × total / wedges`, or 0 for a wedge-free graph.
    pub fn transitivity(&self) -> f64 {
        if self.wedges == 0 {
            0.0
        } else {
            3.0 * self.total as f64 / self.wedges as f64
        }
    }
}

/// Reject inputs the triangle kernels would silently miscount.
fn validate_triangle_input<G: GraphView>(graph: &G) -> Result<(), GraphError> {
    if graph.is_directed() {
        return Err(GraphError::InvalidArgument(
            "triangle counting requires an undirected graph".into(),
        ));
    }
    crate::clustering::validate_sorted_simple(graph)
}

/// Forward (oriented-merge) per-vertex triangle counts over any
/// [`GraphView`].  Each triangle is found exactly once, at its
/// highest-id vertex, by merging the lower-id prefixes of two sorted
/// adjacency lists.
///
/// Returns the same per-vertex incidence vector as the naive counter
/// ([`crate::clustering::naive_triangle_counts`]), bit for bit.
pub fn forward_triangle_counts<G: GraphView>(graph: &G) -> Result<Vec<usize>, GraphError> {
    validate_triangle_input(graph)?;
    TRIANGLE_PASSES.incr();
    let n = graph.num_vertices();
    let counts = AtomicUsizeArray::zeros(n);
    let found: usize = (0..n as VertexId)
        .into_par_iter()
        .map(|v| {
            // Lower-id neighbors of v — a prefix of the sorted list.
            let pv: Vec<VertexId> = graph.neighbors_iter(v).take_while(|&u| u < v).collect();
            let mut local = 0usize;
            for (i, &u) in pv.iter().enumerate() {
                // Merge u's prefix against pv[..i]; common w < u closes
                // the triangle w < u < v.
                let mut a = 0usize;
                for w in graph.neighbors_iter(u) {
                    if w >= u || a == i {
                        break;
                    }
                    while a < i && pv[a] < w {
                        a += 1;
                    }
                    if a < i && pv[a] == w {
                        counts.fetch_add(u as usize, 1);
                        counts.fetch_add(w as usize, 1);
                        local += 1;
                        a += 1;
                    }
                }
            }
            if local > 0 {
                counts.fetch_add(v as usize, local);
            }
            local
        })
        .sum();
    TRIANGLES_FOUND.add(found as u64);
    Ok(counts.to_vec())
}

/// One forward pass over a [`CsrGraph`] producing per-vertex **and**
/// per-arc triangle counts plus the wedge total — everything the
/// clustering coefficients, transitivity, and edge-support queries
/// need, for one traversal of the adjacency structure.
///
/// # Panics
///
/// The per-arc mirror step locates each arc's reverse by binary search,
/// so the graph must be symmetric (every undirected graph built by
/// [`graphct_core::GraphBuilder`] is).  An asymmetric adjacency that
/// still claims to be undirected is a construction bug and panics.
pub fn triangle_stats(graph: &CsrGraph) -> Result<TriangleStats, GraphError> {
    validate_triangle_input(graph)?;
    TRIANGLE_PASSES.incr();
    let n = graph.num_vertices();
    let offsets = graph.offsets();
    let per_vertex = AtomicUsizeArray::zeros(n);
    let oriented = AtomicUsizeArray::zeros(graph.num_arcs());
    let total: usize = (0..n)
        .into_par_iter()
        .map(|vi| {
            let v = vi as VertexId;
            let nbrs = graph.neighbors(v);
            let cut = nbrs.partition_point(|&u| u < v);
            let pv = &nbrs[..cut];
            let base_v = offsets[vi];
            let mut local = 0usize;
            for (i, &u) in pv.iter().enumerate() {
                let nu = graph.neighbors(u);
                let pu = &nu[..nu.partition_point(|&w| w < u)];
                let base_u = offsets[u as usize];
                let (mut a, mut b) = (0usize, 0usize);
                while a < i && b < pu.len() {
                    match pv[a].cmp(&pu[b]) {
                        std::cmp::Ordering::Less => a += 1,
                        std::cmp::Ordering::Greater => b += 1,
                        std::cmp::Ordering::Equal => {
                            // Triangle w < u < v: credit all three
                            // vertices and all three high→low arcs.
                            let w = pv[a];
                            per_vertex.fetch_add(u as usize, 1);
                            per_vertex.fetch_add(w as usize, 1);
                            oriented.fetch_add(base_v + i, 1); // v→u
                            oriented.fetch_add(base_v + a, 1); // v→w
                            oriented.fetch_add(base_u + b, 1); // u→w
                            local += 1;
                            a += 1;
                            b += 1;
                        }
                    }
                }
            }
            if local > 0 {
                per_vertex.fetch_add(vi, local);
            }
            local
        })
        .sum();
    TRIANGLES_FOUND.add(total as u64);

    // Every edge's count landed on its high→low arc; mirror it onto the
    // low→high twin so both directions answer edge-support queries.
    let raw = oriented.to_vec();
    let mut per_arc = vec![0usize; graph.num_arcs()];
    let mut rest: &mut [usize] = &mut per_arc;
    let mut chunks: Vec<(usize, &mut [usize])> = Vec::with_capacity(n);
    for vi in 0..n {
        let (head, tail) = rest.split_at_mut(offsets[vi + 1] - offsets[vi]);
        chunks.push((vi, head));
        rest = tail;
    }
    chunks.into_par_iter().for_each(|(vi, chunk)| {
        let v = vi as VertexId;
        let base = offsets[vi];
        for (i, (&t, slot)) in graph.neighbors(v).iter().zip(chunk.iter_mut()).enumerate() {
            *slot = if t < v {
                raw[base + i]
            } else {
                let pos = graph
                    .neighbors(t)
                    .binary_search(&v)
                    .expect("undirected CSR must be symmetric for per-arc mirroring");
                raw[offsets[t as usize] + pos]
            };
        }
    });

    let wedges: usize = (0..n)
        .into_par_iter()
        .map(|vi| {
            let d = offsets[vi + 1] - offsets[vi];
            d * d.saturating_sub(1) / 2
        })
        .sum();

    Ok(TriangleStats {
        per_vertex: per_vertex.to_vec(),
        per_arc,
        total,
        wedges,
    })
}

/// Names of the 16 Holland–Leinhardt triad classes, in census order.
///
/// The M-A-N naming gives the count of Mutual, Asymmetric, and Null
/// dyads; the suffix distinguishes orientation (Down, Up, Cyclic,
/// Transitive).
pub const TRIAD_CLASSES: [&str; 16] = [
    "003", "012", "102", "021D", "021U", "021C", "111D", "111U", "030T", "030C", "201", "120D",
    "120U", "120C", "210", "300",
];

/// `C(n, 3)` if it fits in `u64`.
fn triad_total(n: usize) -> Option<u64> {
    let n = n as u128;
    if n < 3 {
        return Some(0);
    }
    u64::try_from(n * (n - 1) * (n - 2) / 6).ok()
}

/// The 6-bit arc code of the ordered triple `(u, v, w)` given the
/// already-known `(u, v)` dyad: bit 0 = `u→v`, 1 = `v→u`, 2 = `u→w`,
/// 3 = `w→u`, 4 = `v→w`, 5 = `w→v`.
fn arc_code(graph: &CsrGraph, u: VertexId, v: VertexId, w: VertexId, uv: bool, vu: bool) -> usize {
    usize::from(uv)
        | usize::from(vu) << 1
        | usize::from(graph.has_edge(u, w)) << 2
        | usize::from(graph.has_edge(w, u)) << 3
        | usize::from(graph.has_edge(v, w)) << 4
        | usize::from(graph.has_edge(w, v)) << 5
}

/// Map a 6-bit arc code to its index in [`TRIAD_CLASSES`].
fn classify_code(code: usize) -> usize {
    // Dyad k covers node pair PAIRS[k]; its arcs sit at bits 2k, 2k+1.
    const PAIRS: [(usize, usize); 3] = [(0, 1), (0, 2), (1, 2)];
    let mut mutual = 0usize;
    let mut asym = 0usize;
    let mut aout = [0u8; 3]; // out-degree over asymmetric arcs only
    let mut ain = [0u8; 3];
    let mut in_mutual = [false; 3];
    for (k, &(p, q)) in PAIRS.iter().enumerate() {
        let fwd = (code >> (2 * k)) & 1 != 0;
        let rev = (code >> (2 * k)) & 2 != 0;
        match (fwd, rev) {
            (true, true) => {
                mutual += 1;
                in_mutual[p] = true;
                in_mutual[q] = true;
            }
            (true, false) => {
                asym += 1;
                aout[p] += 1;
                ain[q] += 1;
            }
            (false, true) => {
                asym += 1;
                aout[q] += 1;
                ain[p] += 1;
            }
            (false, false) => {}
        }
    }
    match (mutual, asym) {
        (0, 0) => 0, // 003
        (0, 1) => 1, // 012
        (1, 0) => 2, // 102
        (0, 2) => {
            if aout.contains(&2) {
                3 // 021D: out-star A<-B->C
            } else if ain.contains(&2) {
                4 // 021U: in-star A->B<-C
            } else {
                5 // 021C: chain A->B->C
            }
        }
        (1, 1) => {
            // Head of the lone asymmetric arc inside the mutual dyad?
            let head = ain.iter().position(|&d| d == 1).expect("one asym arc");
            if in_mutual[head] {
                6 // 111D: A<->B<-C
            } else {
                7 // 111U: A<->B->C
            }
        }
        (0, 3) => {
            if aout == [1, 1, 1] {
                9 // 030C: cycle
            } else {
                8 // 030T: transitive
            }
        }
        (2, 0) => 10, // 201
        (1, 2) => {
            let c = (0..3).find(|&i| !in_mutual[i]).expect("one non-mutual");
            if aout[c] == 2 {
                11 // 120D: non-mutual vertex sends to both
            } else if ain[c] == 2 {
                12 // 120U: non-mutual vertex receives from both
            } else {
                13 // 120C: chain through the mutual dyad
            }
        }
        (2, 1) => 14, // 210
        (3, 0) => 15, // 300
        _ => unreachable!("3 dyads cannot produce (M, A) = ({mutual}, {asym})"),
    }
}

fn validate_census_input(graph: &CsrGraph) -> Result<u64, GraphError> {
    if !graph.is_directed() {
        return Err(GraphError::InvalidArgument(
            "triad census requires a directed graph (use triangle counting for undirected)".into(),
        ));
    }
    if !graph.is_sorted_simple() {
        return Err(GraphError::InvalidArgument(
            "triad census requires a simple graph with sorted adjacency \
             (strictly ascending neighbor lists, no self-loops)"
                .into(),
        ));
    }
    triad_total(graph.num_vertices()).ok_or_else(|| {
        GraphError::InvalidArgument(
            "triad census overflows u64 counts beyond ~4.8M vertices".into(),
        )
    })
}

/// Holland–Leinhardt census of all `C(n, 3)` vertex triples of a
/// directed simple graph, by the Batagelj–Mrvar linked-pair algorithm:
/// `O(Σ_pairs (deg(u) + deg(v)))` instead of `O(n³)`.
///
/// Returns counts indexed like [`TRIAD_CLASSES`]; they always sum to
/// `C(n, 3)`.
pub fn triad_census(graph: &CsrGraph) -> Result<[u64; 16], GraphError> {
    let total = validate_census_input(graph)?;
    TRIAD_CENSUS_PASSES.incr();
    let n = graph.num_vertices();
    let tin = graph.transpose();
    // Sorted union neighborhood (out ∪ in) per vertex: the set of
    // vertices linked to v by at least one arc.
    let linked: Vec<Vec<VertexId>> = (0..n)
        .into_par_iter()
        .map(|vi| {
            let v = vi as VertexId;
            let (out, inn) = (graph.neighbors(v), tin.neighbors(v));
            let mut merged = Vec::with_capacity(out.len() + inn.len());
            let (mut i, mut j) = (0, 0);
            while i < out.len() || j < inn.len() {
                if j >= inn.len() || (i < out.len() && out[i] < inn[j]) {
                    merged.push(out[i]);
                    i += 1;
                } else if i >= out.len() || inn[j] < out[i] {
                    merged.push(inn[j]);
                    j += 1;
                } else {
                    merged.push(out[i]);
                    i += 1;
                    j += 1;
                }
            }
            merged
        })
        .collect();

    let mut census = (0..n)
        .into_par_iter()
        .fold(
            || [0u64; 16],
            |mut acc, ui| {
                let u = ui as VertexId;
                for &v in &linked[ui] {
                    if v <= u {
                        continue;
                    }
                    let uv = graph.has_edge(u, v);
                    let vu = graph.has_edge(v, u);
                    // Walk S = linked(u) ∪ linked(v) \ {u, v}, remembering
                    // for each w whether it is linked to u (came from the
                    // u side of the merge).
                    let (a, b) = (&linked[ui], &linked[v as usize]);
                    let (mut i, mut j) = (0, 0);
                    let mut s_len = 0u64;
                    while i < a.len() || j < b.len() {
                        let (w, linked_to_u) = if j >= b.len() || (i < a.len() && a[i] < b[j]) {
                            i += 1;
                            (a[i - 1], true)
                        } else if i >= a.len() || b[j] < a[i] {
                            j += 1;
                            (b[j - 1], false)
                        } else {
                            i += 1;
                            j += 1;
                            (a[i - 1], true)
                        };
                        if w == u || w == v {
                            continue;
                        }
                        s_len += 1;
                        // Count each linked triple once: at its first
                        // linked pair in id order (Batagelj–Mrvar).
                        if v < w || (u < w && w < v && !linked_to_u) {
                            acc[classify_code(arc_code(graph, u, v, w, uv, vu))] += 1;
                        }
                    }
                    // Triads where w touches neither u nor v: pure dyads.
                    let dyad = if uv && vu { 2 } else { 1 }; // 102 : 012
                    acc[dyad] += n as u64 - 2 - s_len;
                }
                acc
            },
        )
        .reduce(
            || [0u64; 16],
            |mut x, y| {
                for (xi, yi) in x.iter_mut().zip(y) {
                    *xi += yi;
                }
                x
            },
        );
    let non_null: u64 = census.iter().sum();
    census[0] = total - non_null;
    Ok(census)
}

/// Brute-force `O(n³)` triad census — the oracle the linked-pair
/// algorithm is property-tested against.  Same validation and output
/// contract as [`triad_census`]; only usable at test scale.
pub fn triad_census_brute(graph: &CsrGraph) -> Result<[u64; 16], GraphError> {
    validate_census_input(graph)?;
    let n = graph.num_vertices();
    let census = (0..n)
        .into_par_iter()
        .fold(
            || [0u64; 16],
            |mut acc, ui| {
                let u = ui as VertexId;
                for v in (ui + 1)..n {
                    let v = v as VertexId;
                    let (uv, vu) = (graph.has_edge(u, v), graph.has_edge(v, u));
                    for w in (v as usize + 1)..n {
                        acc[classify_code(arc_code(graph, u, v, w as VertexId, uv, vu))] += 1;
                    }
                }
                acc
            },
        )
        .reduce(
            || [0u64; 16],
            |mut x, y| {
                for (xi, yi) in x.iter_mut().zip(y) {
                    *xi += yi;
                }
                x
            },
        );
    Ok(census)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphct_core::builder::{build_directed_simple, build_undirected_simple};
    use graphct_core::EdgeList;

    fn undirected(edges: &[(u32, u32)]) -> CsrGraph {
        build_undirected_simple(&EdgeList::from_pairs(edges.to_vec())).unwrap()
    }

    fn directed(edges: &[(u32, u32)]) -> CsrGraph {
        build_directed_simple(&EdgeList::from_pairs(edges.to_vec())).unwrap()
    }

    #[test]
    fn forward_counts_match_known_graphs() {
        let tri = undirected(&[(0, 1), (1, 2), (0, 2)]);
        assert_eq!(forward_triangle_counts(&tri).unwrap(), vec![1, 1, 1]);
        let star = undirected(&[(0, 1), (0, 2), (0, 3)]);
        assert_eq!(forward_triangle_counts(&star).unwrap(), vec![0; 4]);
    }

    #[test]
    fn stats_on_triangle_with_pendant() {
        // Triangle 0-1-2 plus pendant 3 on 0.
        let g = undirected(&[(0, 1), (1, 2), (0, 2), (0, 3)]);
        let stats = triangle_stats(&g).unwrap();
        assert_eq!(stats.per_vertex, vec![1, 1, 1, 0]);
        assert_eq!(stats.total, 1);
        assert_eq!(stats.wedges, 3 + 1 + 1); // C(3,2) + C(2,2)·2
        assert!((stats.transitivity() - 3.0 / 5.0).abs() < 1e-12);
        // Triangle arcs carry 1, the pendant arcs carry 0.
        for v in 0..4u32 {
            for (i, &t) in g.neighbors(v).iter().enumerate() {
                let want = usize::from(v != 3 && t != 3);
                assert_eq!(stats.per_arc[g.offsets()[v as usize] + i], want, "{v}->{t}");
            }
        }
    }

    #[test]
    fn per_arc_mirrors_are_consistent() {
        let g = undirected(&[(0, 1), (1, 2), (0, 2), (2, 3), (3, 0), (1, 3)]);
        let stats = triangle_stats(&g).unwrap();
        for v in 0..g.num_vertices() as u32 {
            for (i, &t) in g.neighbors(v).iter().enumerate() {
                let here = stats.per_arc[g.offsets()[v as usize] + i];
                let pos = g.neighbors(t).binary_search(&v).unwrap();
                let there = stats.per_arc[g.offsets()[t as usize] + pos];
                assert_eq!(here, there, "arc {v}<->{t}");
            }
        }
        // Σ per-arc over v's arcs = 2 · per_vertex[v]: each triangle at v
        // crosses exactly two of v's arcs.
        for v in 0..g.num_vertices() {
            let (lo, hi) = (g.offsets()[v], g.offsets()[v + 1]);
            let arc_sum: usize = stats.per_arc[lo..hi].iter().sum();
            assert_eq!(arc_sum, 2 * stats.per_vertex[v], "vertex {v}");
        }
    }

    #[test]
    fn forward_rejects_directed_and_malformed() {
        let d = directed(&[(0, 1)]);
        assert!(forward_triangle_counts(&d).is_err());
        let unsorted =
            CsrGraph::from_raw_parts(vec![0, 2, 4, 6], vec![2, 1, 0, 2, 0, 1], false).unwrap();
        assert!(triangle_stats(&unsorted).is_err());
    }

    #[test]
    fn classifier_recognizes_all_sixteen_classes() {
        // Hand-built 3-vertex graphs (u=0, v=1, w=2), one per class.
        let cases: [(&[(u32, u32)], &str); 16] = [
            (&[], "003"),
            (&[(0, 1)], "012"),
            (&[(0, 1), (1, 0)], "102"),
            (&[(1, 0), (1, 2)], "021D"),
            (&[(0, 1), (2, 1)], "021U"),
            (&[(0, 1), (1, 2)], "021C"),
            (&[(0, 1), (1, 0), (2, 1)], "111D"),
            (&[(0, 1), (1, 0), (1, 2)], "111U"),
            (&[(0, 1), (1, 2), (0, 2)], "030T"),
            (&[(0, 1), (1, 2), (2, 0)], "030C"),
            (&[(0, 1), (1, 0), (0, 2), (2, 0)], "201"),
            (&[(1, 0), (1, 2), (0, 2), (2, 0)], "120D"),
            (&[(0, 1), (2, 1), (0, 2), (2, 0)], "120U"),
            (&[(0, 1), (1, 2), (0, 2), (2, 0)], "120C"),
            (&[(0, 1), (1, 0), (1, 2), (0, 2), (2, 0)], "210"),
            (&[(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)], "300"),
        ];
        for (edges, name) in cases {
            let mut g = EdgeList::from_pairs(edges.to_vec());
            g.push(2, 2); // force 3 vertices; loop dropped by the builder
            let g = build_directed_simple(&g).unwrap();
            let census = triad_census(&g).unwrap();
            let idx = TRIAD_CLASSES.iter().position(|&c| c == name).unwrap();
            let mut want = [0u64; 16];
            want[idx] = 1;
            assert_eq!(census, want, "{name}: {census:?}");
        }
    }

    #[test]
    fn census_rows_sum_to_all_triples() {
        let g = directed(&[(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0), (1, 4)]);
        let census = triad_census(&g).unwrap();
        let n = g.num_vertices() as u64;
        assert_eq!(census.iter().sum::<u64>(), n * (n - 1) * (n - 2) / 6);
        assert_eq!(census, triad_census_brute(&g).unwrap());
    }

    #[test]
    fn census_rejects_undirected_and_tiny_graphs_work() {
        assert!(triad_census(&undirected(&[(0, 1)])).is_err());
        let two = directed(&[(0, 1)]);
        assert_eq!(triad_census(&two).unwrap(), [0u64; 16]);
        let empty = CsrGraph::empty(0, true);
        assert_eq!(triad_census(&empty).unwrap(), [0u64; 16]);
    }

    #[test]
    fn triad_total_overflow_guard() {
        assert_eq!(triad_total(2), Some(0));
        assert_eq!(triad_total(4), Some(4));
        assert_eq!(triad_total(4_000_000), Some(10_666_658_666_668_000_000));
        assert_eq!(triad_total(5_000_000), None, "C(5M, 3) exceeds u64");
    }
}
