//! k-betweenness centrality.
//!
//! Betweenness is fragile: "Adding or removing a single edge may
//! drastically alter many vertices' betweenness centrality scores"
//! (paper §II-A).  *k-betweenness centrality* [Jiang–Ediger–Bader,
//! ICPP 2009; paper refs. [20], [26]] also credits paths up to `k` longer
//! than the shortest, so near-optimal detours that would become shortest
//! paths after a small change already contribute.  `k = 0` recovers
//! classical betweenness; the paper's example script computes
//! `kcentrality 1` and `kcentrality 2`.
//!
//! ## Semantics implemented here
//!
//! For each ordered pair `(s, t)` we count **walks** from `s` to `t` of
//! length at most `d(s,t) + k` (the natural closure of the BFS-DAG
//! recurrence the original algorithm evaluates: for `k ≥ 2` a bounded
//! detour may legitimately revisit a vertex, and the algebra counts each
//! such traversal).  The score of `v` is
//!
//! ```text
//! BC_k(v) = Σ_{s,t ≠ v}  (# k-short s→t walks, weighted by interior
//!                          occurrences of v)  /  (# k-short s→t walks)
//! ```
//!
//! which for `k = 0` is exactly Freeman/Brandes betweenness (shortest
//! paths cannot revisit anything).  The unit tests pin this definition to
//! an independent matrix-power oracle on random graphs.
//!
//! ## Algorithm
//!
//! Per source `s` (sources run in parallel, as in plain betweenness):
//!
//! 1. BFS gives levels `d(v)`.
//! 2. Forward sweep computes `σ_v[j]`, the number of walks `s→v` of
//!    length `d(v)+j`, for `j = 0..=k`: a walk arriving at `v` steps from
//!    a neighbor `u` with remaining slack `j - 1 + d(u) - d(v)`.
//!    Sweeping `j` outer / levels ascending inner resolves every
//!    dependency.
//! 3. Backward sweep computes `F_v[c] = Σ_{t≠s} W(v→t, ≤ d(t)-d(v)+c) /
//!    σ̂_t` (walks of length ≥ 0), via the mirrored recurrence with `c`
//!    outer / levels descending inner, where `σ̂_t = Σ_j σ_t[j]` is the
//!    pair denominator.
//! 4. `v`'s contribution is `Σ_j σ_v[j] · G_v[k-j]` where `G` removes the
//!    `t = v` terms from `F` (the empty walk plus, for `c ≥ 2`, the
//!    `deg(v)` closed walks `v–u–v`).
//!
//! Preconditions: undirected simple graph (no self-loops) and `k ≤ 2`.
//! The triangle inequality of undirected distances guarantees every
//! prefix of a k-short walk is itself k-short, which steps 2–4 rely on;
//! `k ≤ 2` keeps the closed-walk correction in step 4 exact (longer
//! closed walks would require triangle counts), and matches the range the
//! paper exercises.

use crate::betweenness::{select_sources, sum_over_sources, BetweennessResult, SamplingSpec};
use crate::bfs::{BfsConfig, Direction};
use crate::traverse::LevelDriver;
use graphct_core::{CsrGraph, GraphError, VertexId};
use rayon::prelude::*;

/// Largest supported `k` (see module docs).
pub const MAX_K: usize = 2;

/// Configuration for [`k_betweenness_centrality`].
#[derive(Debug, Clone)]
pub struct KBetweennessConfig {
    /// Extra path slack; `0` gives classical betweenness.
    pub k: usize,
    /// Source sampling (selection, strategy, seed) — the same
    /// [`SamplingSpec`] plain betweenness uses, so the two kernels share
    /// one sampling implementation.
    pub sampling: SamplingSpec,
    /// Scale sampled scores by `n / |sample|`.
    pub rescale: bool,
    /// Direction-optimization tuning for the per-source level BFS
    /// (step 1 of the algorithm).
    pub bfs: BfsConfig,
}

impl KBetweennessConfig {
    /// Exact k-betweenness with slack `k`.
    pub fn exact(k: usize) -> Self {
        Self {
            k,
            sampling: SamplingSpec::exact(),
            rescale: true,
            bfs: BfsConfig::default(),
        }
    }

    /// Sampled k-betweenness from `count` sources — the script command
    /// `kcentrality <k> <count>` (paper §IV-B).
    pub fn sampled(k: usize, count: usize, seed: u64) -> Self {
        Self {
            sampling: SamplingSpec::count(count, seed),
            ..Self::exact(k)
        }
    }
}

/// Per-source scratch for the three sweeps.
struct KWorkspace {
    k1: usize, // k + 1
    dist: Vec<u32>,
    /// `order` holds reached vertices grouped by ascending level;
    /// `level_start[l]` indexes the first vertex of level `l`.
    order: Vec<VertexId>,
    level_start: Vec<usize>,
    sigma: Vec<f64>,     // [v * k1 + j]
    sigma_hat: Vec<f64>, // [v]
    f: Vec<f64>,         // [v * k1 + c]
    /// The level driver's unvisited-list scratch for pull levels.
    unvisited: Vec<VertexId>,
}

impl KWorkspace {
    fn new(n: usize, k: usize) -> Self {
        let k1 = k + 1;
        Self {
            k1,
            dist: vec![u32::MAX; n],
            order: Vec::with_capacity(n),
            level_start: Vec::new(),
            sigma: vec![0.0; n * k1],
            sigma_hat: vec![0.0; n],
            f: vec![0.0; n * k1],
            unvisited: Vec::new(),
        }
    }

    fn reset_touched(&mut self) {
        for &v in &self.order {
            let v = v as usize;
            self.dist[v] = u32::MAX;
            self.sigma_hat[v] = 0.0;
            for j in 0..self.k1 {
                self.sigma[v * self.k1 + j] = 0.0;
                self.f[v * self.k1 + j] = 0.0;
            }
        }
        self.order.clear();
        self.level_start.clear();
    }
}

fn accumulate_source_kbc(
    graph: &CsrGraph,
    source: VertexId,
    k: usize,
    bfs: &BfsConfig,
    ws: &mut KWorkspace,
    scores: &mut [f64],
) {
    let n = graph.num_vertices();
    ws.reset_touched();
    let k1 = k + 1;

    // --- 1. Direction-optimizing BFS building level-grouped visitation
    // order.  The graph is undirected (checked by the caller), so pull
    // levels scan the same adjacency and may stop at the first frontier
    // parent — only levels are needed here; the σ sweeps follow in
    // steps 2–3.
    ws.dist[source as usize] = 0;
    ws.order.push(source);
    ws.level_start.push(0);
    let mut level_begin = 0usize;
    let mut driver = LevelDriver::new(
        bfs,
        n,
        graph.num_arcs(),
        graph.degree(source),
        &mut ws.unvisited,
    );
    while level_begin < ws.order.len() {
        let level_end = ws.order.len();
        let direction = driver.next_direction(level_end - level_begin);
        let depth = driver.depth();
        match direction {
            Direction::Push => {
                for i in level_begin..level_end {
                    let u = ws.order[i];
                    for &v in graph.neighbors(u) {
                        if ws.dist[v as usize] == u32::MAX {
                            ws.dist[v as usize] = depth + 1;
                            ws.order.push(v);
                        }
                    }
                }
            }
            Direction::Pull => {
                let dist = &ws.dist;
                for &v in driver.unvisited(|v| dist[v as usize] == u32::MAX) {
                    for &u in graph.neighbors(v) {
                        if ws.dist[u as usize] == depth {
                            ws.dist[v as usize] = depth + 1;
                            ws.order.push(v);
                            break;
                        }
                    }
                }
            }
        }
        driver.finish_level(ws.order[level_end..].iter().map(|&v| graph.degree(v)).sum());
        level_begin = level_end;
        if level_begin < ws.order.len() {
            ws.level_start.push(level_begin);
        }
    }
    ws.level_start.push(ws.order.len()); // sentinel
    let num_levels = ws.level_start.len() - 1;

    // --- 2. Forward σ sweep: j outer, levels ascending.
    ws.sigma[source as usize * k1] = 1.0;
    for j in 0..=k {
        for lvl in 0..num_levels {
            for i in ws.level_start[lvl]..ws.level_start[lvl + 1] {
                let v = ws.order[i];
                if v == source && j == 0 {
                    continue; // base case already seeded
                }
                let dv = ws.dist[v as usize];
                let mut acc = 0.0;
                for &u in graph.neighbors(v) {
                    let du = ws.dist[u as usize];
                    if du == u32::MAX {
                        continue;
                    }
                    // Slack of the walk at u: d(v) + j - 1 - d(u).
                    let jp = j as i64 - 1 + dv as i64 - du as i64;
                    if (0..=j as i64).contains(&jp) {
                        acc += ws.sigma[u as usize * k1 + jp as usize];
                    }
                }
                ws.sigma[v as usize * k1 + j] = acc;
            }
        }
    }
    for &v in &ws.order {
        let v = v as usize;
        ws.sigma_hat[v] = (0..=k).map(|j| ws.sigma[v * k1 + j]).sum();
    }

    // --- 3. Backward F sweep: c outer, levels descending.
    for c in 0..=k {
        for lvl in (0..num_levels).rev() {
            for i in ws.level_start[lvl]..ws.level_start[lvl + 1] {
                let v = ws.order[i];
                let dv = ws.dist[v as usize];
                let mut acc = if v == source {
                    0.0
                } else {
                    1.0 / ws.sigma_hat[v as usize]
                };
                for &u in graph.neighbors(v) {
                    let du = ws.dist[u as usize];
                    if du == u32::MAX {
                        continue;
                    }
                    let cp = c as i64 - 1 + du as i64 - dv as i64;
                    if (0..=k as i64).contains(&cp) {
                        acc += ws.f[u as usize * k1 + cp as usize];
                    }
                }
                ws.f[v as usize * k1 + c] = acc;
            }
        }
    }

    // --- 4. Pair contributions.
    for &v in &ws.order {
        if v == source {
            continue;
        }
        let vu = v as usize;
        let deg = graph.degree(v) as f64;
        let mut contrib = 0.0;
        for j in 0..=k {
            let c = k - j;
            // Remove the t = v terms from F: the zero-length walk plus
            // (when c ≥ 2) the deg(v) closed walks v–u–v.
            let self_walks = 1.0 + if c >= 2 { deg } else { 0.0 };
            let g = ws.f[vu * k1 + c] - self_walks / ws.sigma_hat[vu];
            contrib += ws.sigma[vu * k1 + j] * g;
        }
        scores[vu] += contrib;
    }
}

/// Compute k-betweenness centrality under `config`.
///
/// # Errors
/// * [`GraphError::InvalidArgument`] when `k > 2`, the graph is directed,
///   the graph contains self-loops (see module docs), or the sampling
///   spec is invalid.
pub fn k_betweenness_centrality(
    graph: &CsrGraph,
    config: &KBetweennessConfig,
) -> Result<BetweennessResult, GraphError> {
    config.sampling.validate()?;
    if config.k > MAX_K {
        return Err(GraphError::InvalidArgument(format!(
            "k-betweenness supports k <= {MAX_K}, got {}",
            config.k
        )));
    }
    if graph.is_directed() {
        return Err(GraphError::InvalidArgument(
            "k-betweenness requires an undirected graph".into(),
        ));
    }
    if graph.count_self_loops() > 0 {
        return Err(GraphError::InvalidArgument(
            "k-betweenness requires a graph without self-loops".into(),
        ));
    }

    let n = graph.num_vertices();
    let sources = select_sources(graph, &config.sampling);
    if n == 0 || sources.is_empty() {
        return Ok(BetweennessResult {
            scores: vec![0.0; n],
            sources,
        });
    }

    let workspace = || KWorkspace::new(n, config.k);
    let mut scores = sum_over_sources(&sources, n, workspace, |_, s, ws, local| {
        accumulate_source_kbc(graph, s, config.k, &config.bfs, ws, local);
    });

    if config.rescale && sources.len() < n {
        let scale = n as f64 / sources.len() as f64;
        scores.par_iter_mut().for_each(|s| *s *= scale);
    }
    Ok(BetweennessResult { scores, sources })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::betweenness::{betweenness_centrality, BetweennessConfig};
    use graphct_core::builder::build_undirected_simple;
    use graphct_core::EdgeList;

    fn graph(edges: &[(u32, u32)]) -> CsrGraph {
        build_undirected_simple(&EdgeList::from_pairs(edges.to_vec())).unwrap()
    }

    fn exact_kbc(g: &CsrGraph, k: usize) -> Vec<f64> {
        k_betweenness_centrality(g, &KBetweennessConfig::exact(k))
            .unwrap()
            .scores
    }

    /// Independent oracle via walk-count dynamic programming
    /// ("matrix powers"): W[l][v] = number of walks of length l from a
    /// fixed start.  Directly evaluates the module-doc definition.
    #[allow(clippy::needless_range_loop)]
    fn oracle_kbc(g: &CsrGraph, k: usize) -> Vec<f64> {
        let n = g.num_vertices();
        let mut bc = vec![0.0; n];
        for s in 0..n as u32 {
            let dist = crate::bfs::sequential_bfs_levels(g, s);
            let max_d = dist
                .iter()
                .filter(|&&d| d != u32::MAX)
                .max()
                .copied()
                .unwrap_or(0) as usize;
            let max_len = max_d + k;
            // walks_from[x][l][v] = # walks x→v of length l.
            let walk_table = |x: u32| -> Vec<Vec<f64>> {
                let mut w = vec![vec![0.0; n]; max_len + 1];
                w[0][x as usize] = 1.0;
                for l in 1..=max_len {
                    for v in 0..n as u32 {
                        let mut acc = 0.0;
                        for &u in g.neighbors(v) {
                            acc += w[l - 1][u as usize];
                        }
                        w[l][v as usize] = acc;
                    }
                }
                w
            };
            let from_s = walk_table(s);
            for t in 0..n as u32 {
                if t == s || dist[t as usize] == u32::MAX {
                    continue;
                }
                let budget = dist[t as usize] as usize + k;
                let denom: f64 = (0..=budget).map(|l| from_s[l][t as usize]).sum();
                if denom == 0.0 {
                    continue;
                }
                let from_t_rev = walk_table(t); // undirected: walks t→v == v→t
                for v in 0..n as u32 {
                    if v == s || v == t {
                        continue;
                    }
                    // interior occurrences: prefix length a ≥ 0 (v≠s ⇒ ≥1
                    // automatically), suffix length b ≥ 1.
                    let mut num = 0.0;
                    for a in 0..=budget {
                        for b in 1..=(budget - a) {
                            num += from_s[a][v as usize] * from_t_rev[b][v as usize];
                        }
                    }
                    bc[v as usize] += num / denom;
                }
            }
        }
        bc
    }

    #[test]
    fn k0_matches_brandes_on_path() {
        let g = graph(&[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let kbc = exact_kbc(&g, 0);
        let bc = betweenness_centrality(&g, &BetweennessConfig::exact())
            .unwrap()
            .scores;
        for v in 0..5 {
            assert!(
                (kbc[v] - bc[v]).abs() < 1e-9,
                "v={v}: {} vs {}",
                kbc[v],
                bc[v]
            );
        }
    }

    #[test]
    fn k0_matches_brandes_on_random_graphs() {
        let mut x = 17u64;
        for trial in 0..4 {
            let mut edges = Vec::new();
            for _ in 0..70 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(trial + 5);
                let s = ((x >> 32) % 25) as u32;
                x = x.wrapping_mul(6364136223846793005).wrapping_add(trial + 5);
                let t = ((x >> 32) % 25) as u32;
                edges.push((s, t));
            }
            let g = graph(&edges);
            let kbc = exact_kbc(&g, 0);
            let bc = betweenness_centrality(&g, &BetweennessConfig::exact())
                .unwrap()
                .scores;
            for v in 0..g.num_vertices() {
                assert!(
                    (kbc[v] - bc[v]).abs() < 1e-6,
                    "trial {trial} v={v}: {} vs {}",
                    kbc[v],
                    bc[v]
                );
            }
        }
    }

    #[test]
    fn k1_matches_oracle_on_square_with_chord() {
        // 4-cycle + chord: alternate paths exactly one longer than the
        // shortest exist, so k=1 differs from k=0.
        let g = graph(&[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        let kbc = exact_kbc(&g, 1);
        let oracle = oracle_kbc(&g, 1);
        for v in 0..4 {
            assert!(
                (kbc[v] - oracle[v]).abs() < 1e-9,
                "v={v}: {} vs {}",
                kbc[v],
                oracle[v]
            );
        }
        // And k=1 must differ from k=0 somewhere on this graph.
        let k0 = exact_kbc(&g, 0);
        assert!(kbc.iter().zip(&k0).any(|(a, b)| (a - b).abs() > 1e-9));
    }

    #[test]
    fn k1_and_k2_match_oracle_on_random_graphs() {
        let mut x = 23u64;
        for trial in 0..3 {
            let mut edges = Vec::new();
            for _ in 0..18 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(trial + 3);
                let s = ((x >> 32) % 9) as u32;
                x = x.wrapping_mul(6364136223846793005).wrapping_add(trial + 3);
                let t = ((x >> 32) % 9) as u32;
                edges.push((s, t));
            }
            let g = graph(&edges);
            for k in 1..=2 {
                let kbc = exact_kbc(&g, k);
                let oracle = oracle_kbc(&g, k);
                for v in 0..g.num_vertices() {
                    assert!(
                        (kbc[v] - oracle[v]).abs() < 1e-6,
                        "trial {trial} k={k} v={v}: {} vs {}",
                        kbc[v],
                        oracle[v]
                    );
                }
            }
        }
    }

    #[test]
    fn tree_has_no_alternate_paths() {
        // On a tree, no walk beats or pads a unique simple path without
        // backtracking; k=1 adds no length-d+1 walks (parity!), so scores
        // match k=0 exactly. k=2 adds backtracking walks and grows scores.
        let g = graph(&[(0, 1), (1, 2), (1, 3), (3, 4)]);
        let k0 = exact_kbc(&g, 0);
        let k1 = exact_kbc(&g, 1);
        for v in 0..5 {
            assert!((k0[v] - k1[v]).abs() < 1e-9, "v={v}");
        }
        let k2 = exact_kbc(&g, 2);
        let oracle2 = oracle_kbc(&g, 2);
        for v in 0..5 {
            assert!((k2[v] - oracle2[v]).abs() < 1e-9, "v={v}");
        }
    }

    #[test]
    fn level_bfs_directions_agree() {
        let mut x = 31u64;
        let mut edges = Vec::new();
        for _ in 0..80 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(13);
            let s = ((x >> 32) % 20) as u32;
            x = x.wrapping_mul(6364136223846793005).wrapping_add(13);
            let t = ((x >> 32) % 20) as u32;
            if s != t {
                edges.push((s, t));
            }
        }
        let g = graph(&edges);
        for k in 0..=2 {
            let baseline = {
                let mut cfg = KBetweennessConfig::exact(k);
                cfg.bfs = BfsConfig::push_only();
                k_betweenness_centrality(&g, &cfg).unwrap().scores
            };
            for bfs in [BfsConfig::pull_only(), BfsConfig::hybrid()] {
                let mut cfg = KBetweennessConfig::exact(k);
                cfg.bfs = bfs;
                let got = k_betweenness_centrality(&g, &cfg).unwrap().scores;
                for v in 0..g.num_vertices() {
                    assert!(
                        (got[v] - baseline[v]).abs() < 1e-9,
                        "k={k} {:?} v={v}: {} vs {}",
                        bfs.frontier,
                        got[v],
                        baseline[v]
                    );
                }
            }
        }
    }

    #[test]
    fn rejects_invalid_inputs() {
        let g = graph(&[(0, 1)]);
        assert!(k_betweenness_centrality(&g, &KBetweennessConfig::exact(3)).is_err());
        let d = graphct_core::builder::build_directed_simple(&EdgeList::from_pairs(vec![(0, 1)]))
            .unwrap();
        assert!(k_betweenness_centrality(&d, &KBetweennessConfig::exact(1)).is_err());
        let with_loop = graphct_core::GraphBuilder::undirected()
            .self_loops(graphct_core::SelfLoopPolicy::Keep)
            .build(&EdgeList::from_pairs(vec![(0, 0), (0, 1)]))
            .unwrap();
        assert!(k_betweenness_centrality(&with_loop, &KBetweennessConfig::exact(1)).is_err());
    }

    #[test]
    fn sampled_kbc_is_deterministic() {
        let g = graph(&[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]);
        let a = k_betweenness_centrality(&g, &KBetweennessConfig::sampled(1, 3, 9)).unwrap();
        let b = k_betweenness_centrality(&g, &KBetweennessConfig::sampled(1, 3, 9)).unwrap();
        assert_eq!(a.scores, b.scores);
        assert_eq!(a.sources.len(), 3);
    }

    #[test]
    fn empty_graph_ok() {
        let g = CsrGraph::empty(0, false);
        let r = k_betweenness_centrality(&g, &KBetweennessConfig::exact(1)).unwrap();
        assert!(r.scores.is_empty());
    }

    #[test]
    fn disconnected_graph_scores_within_components() {
        let g = graph(&[(0, 1), (1, 2), (4, 5), (5, 6)]);
        for k in 0..=2 {
            let kbc = exact_kbc(&g, k);
            let oracle = oracle_kbc(&g, k);
            for v in 0..g.num_vertices() {
                assert!(
                    (kbc[v] - oracle[v]).abs() < 1e-9,
                    "k={k} v={v}: {} vs {}",
                    kbc[v],
                    oracle[v]
                );
            }
        }
    }
}
