//! The benchmark's own reference answers.
//!
//! Deliberately the plainest sequential algorithms, sharing no code with
//! the kernels they check (the in-crate oracles are production API that
//! ROADMAP item 4 moves, so the yardstick may not lean on them).

use std::collections::VecDeque;

use graphct::prelude::{CsrGraph, GraphView, VertexId};

/// Level of a vertex no path reaches (the kernels use the same value).
pub const UNREACHED: u32 = u32::MAX;

/// Queue BFS levels from `source`.
pub fn bfs_levels<G: GraphView>(graph: &G, source: VertexId) -> Vec<u32> {
    let mut level = vec![UNREACHED; graph.num_vertices()];
    let mut queue = VecDeque::from([source]);
    level[source as usize] = 0;
    while let Some(u) = queue.pop_front() {
        for v in graph.neighbors_iter(u) {
            if level[v as usize] == UNREACHED {
                level[v as usize] = level[u as usize] + 1;
                queue.push_back(v);
            }
        }
    }
    level
}

/// Union-find components, labelled by each component's smallest vertex
/// id (the canonical labelling `connected_components` documents).
pub fn components<G: GraphView>(graph: &G) -> Vec<VertexId> {
    fn find(parent: &mut [VertexId], mut v: VertexId) -> VertexId {
        while parent[v as usize] != v {
            parent[v as usize] = parent[parent[v as usize] as usize];
            v = parent[v as usize];
        }
        v
    }
    let n = graph.num_vertices();
    let mut parent: Vec<VertexId> = (0..n as VertexId).collect();
    for u in 0..n as VertexId {
        for v in graph.neighbors_iter(u) {
            let (a, b) = (find(&mut parent, u), find(&mut parent, v));
            // The smaller id stays root, so roots are component minima.
            parent[a.max(b) as usize] = a.min(b);
        }
    }
    (0..n as VertexId).map(|v| find(&mut parent, v)).collect()
}

/// Per-vertex triangle counts of a small undirected simple graph by
/// adjacency-matrix rows: the triangles at `v` are the pairs of its
/// neighbours that are themselves adjacent.
pub fn triangles_brute(graph: &CsrGraph) -> Vec<usize> {
    let n = graph.num_vertices();
    let words = n.div_ceil(64);
    let mut rows = vec![0u64; n * words];
    for (u, v) in graph.iter_arcs() {
        rows[u as usize * words + v as usize / 64] |= 1 << (v % 64);
    }
    (0..n)
        .map(|v| {
            let mine = &rows[v * words..(v + 1) * words];
            let pairs: usize = graph
                .neighbors(v as VertexId)
                .iter()
                .map(|&u| {
                    let theirs = &rows[u as usize * words..(u as usize + 1) * words];
                    mine.iter()
                        .zip(theirs)
                        .map(|(a, b)| (a & b).count_ones() as usize)
                        .sum::<usize>()
                })
                .sum();
            pairs / 2
        })
        .collect()
}

/// Brandes betweenness from the given sources, scaled by `n / |sources|`
/// like the kernel's `rescale` default.  Raw totals: each unordered pair
/// of an undirected graph counts twice.
pub fn betweenness(graph: &CsrGraph, sources: &[VertexId]) -> Vec<f64> {
    let n = graph.num_vertices();
    let mut score = vec![0.0f64; n];
    let (mut dist, mut sigma, mut delta) = (vec![UNREACHED; n], vec![0.0f64; n], vec![0.0f64; n]);
    let mut order: Vec<VertexId> = Vec::with_capacity(n);
    for &s in sources {
        for &v in &order {
            dist[v as usize] = UNREACHED;
            sigma[v as usize] = 0.0;
            delta[v as usize] = 0.0;
        }
        order.clear();
        order.push(s);
        dist[s as usize] = 0;
        sigma[s as usize] = 1.0;
        let mut head = 0;
        while head < order.len() {
            let u = order[head];
            head += 1;
            for &v in graph.neighbors(u) {
                if dist[v as usize] == UNREACHED {
                    dist[v as usize] = dist[u as usize] + 1;
                    order.push(v);
                }
                if dist[v as usize] == dist[u as usize] + 1 {
                    sigma[v as usize] += sigma[u as usize];
                }
            }
        }
        for &w in order.iter().rev() {
            for &v in graph.neighbors(w) {
                if dist[v as usize] + 1 == dist[w as usize] {
                    delta[v as usize] +=
                        sigma[v as usize] / sigma[w as usize] * (1.0 + delta[w as usize]);
                }
            }
            if w != s {
                score[w as usize] += delta[w as usize];
            }
        }
    }
    if !sources.is_empty() && sources.len() < n {
        let scale = n as f64 / sources.len() as f64;
        score.iter_mut().for_each(|x| *x *= scale);
    }
    score
}

/// Relative tolerance for comparing betweenness scores: the kernels sum
/// the same dependencies in another order.
pub const SCORE_RTOL: f64 = 1e-9;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= SCORE_RTOL * a.abs().max(b.abs()).max(1.0)
}

/// Does `ranked` — the system's top-k as (vertex, score) — agree with
/// the reference scores?  Compared as a set: every served score must
/// match the reference, and no vertex left out may score above the
/// lowest one served (ties at the cut may fall either way).
pub fn top_k_agrees(ranked: &[(VertexId, f64)], reference: &[f64], k: usize) -> bool {
    if ranked.len() != k.min(reference.len()) {
        return false;
    }
    let mut seen = std::collections::HashSet::new();
    if !ranked
        .iter()
        .all(|&(v, s)| seen.insert(v) && close(s, reference[v as usize]))
    {
        return false;
    }
    let cut = ranked.iter().map(|&(_, s)| s).fold(f64::INFINITY, f64::min);
    reference
        .iter()
        .enumerate()
        .all(|(v, &s)| seen.contains(&(v as VertexId)) || s <= cut || close(s, cut))
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphct::prelude::{build_undirected_simple, EdgeList};

    fn graph(pairs: &[(u32, u32)]) -> CsrGraph {
        build_undirected_simple(&EdgeList::from_pairs(pairs.to_vec())).unwrap()
    }

    #[test]
    fn bfs_and_components_on_two_pieces() {
        // A path 0-1-2 and, apart from it, an edge 4-3.
        let g = graph(&[(0, 1), (1, 2), (4, 3)]);
        assert_eq!(bfs_levels(&g, 0), vec![0, 1, 2, UNREACHED, UNREACHED]);
        assert_eq!(components(&g), vec![0, 0, 0, 3, 3]);
    }

    #[test]
    fn triangles_of_a_clique_with_a_tail() {
        // K4 on 0..4 plus a pendant 3-4: every clique vertex is in 3 triangles.
        let g = graph(&[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)]);
        assert_eq!(triangles_brute(&g), vec![3, 3, 3, 3, 0]);
    }

    #[test]
    fn betweenness_of_a_path_and_top_k_set_comparison() {
        // Path 0-1-2-3-4, all sources: raw (both directions) scores 0,6,8,6,0.
        let g = graph(&[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let all: Vec<u32> = (0..5).collect();
        let bc = betweenness(&g, &all);
        assert_eq!(bc, vec![0.0, 6.0, 8.0, 6.0, 0.0]);
        assert!(top_k_agrees(&[(2, 8.0), (1, 6.0)], &bc, 2));
        assert!(
            top_k_agrees(&[(2, 8.0), (3, 6.0)], &bc, 2),
            "tie at the cut"
        );
        assert!(
            !top_k_agrees(&[(2, 8.0), (0, 0.0)], &bc, 2),
            "left out a higher score"
        );
        assert!(!top_k_agrees(&[(2, 8.5), (1, 6.0)], &bc, 2), "wrong score");
        assert!(!top_k_agrees(&[(2, 8.0)], &bc, 2), "too few");
    }
}
