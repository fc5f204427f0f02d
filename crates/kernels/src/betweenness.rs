//! Betweenness centrality — exact (Brandes) and source-sampled
//! approximate.
//!
//! `BC(v) = Σ_{s≠v≠t} σ_st(v) / σ_st` (paper §II-A), computed with
//! Brandes' dependency accumulation [Brandes 2001].  The contribution of
//! each source vertex is independent, so sources run as coarse parallel
//! tasks, each with its own O(n) workspace — exactly the parallel
//! decomposition the paper describes ("The contributions by each source
//! vertex can be computed independently and in parallel, given sufficient
//! memory (O(S(m+n)))").
//!
//! Approximation follows Bader–Kintali–Madduri–Mihail (paper ref. [3]):
//! sample a subset of source vertices and scale the accumulated
//! dependencies by `n / |sample|`.  §III-E's experiments sample 10 %,
//! 25 %, 50 % of vertices; Fig. 6 fixes 256 sources.  The paper
//! conjectures (§V) that unguided uniform sampling "may miss components";
//! [`SamplingStrategy::ComponentStratified`] implements the guided
//! alternative and the bench crate measures the difference.

use crate::bfs::{BfsConfig, Direction};
use crate::components::ComponentSummary;
use crate::traverse::LevelDriver;
use graphct_core::{CsrGraph, GraphError, VertexId};
use graphct_mt::rng::task_rng;
use rand::seq::SliceRandom;
use rayon::prelude::*;

/// Which source vertices drive the accumulation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum SourceSelection {
    /// Every vertex: exact betweenness centrality.
    #[default]
    All,
    /// A fixed number of sampled sources (Fig. 6 uses 256).
    Count(usize),
    /// A fraction of all vertices (Figs. 4–5 use 0.10 / 0.25 / 0.50).
    Fraction(f64),
}

/// How sampled sources are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SamplingStrategy {
    /// Uniform over all vertices — the paper's method.
    #[default]
    Uniform,
    /// Proportional allocation across connected components, uniform
    /// within each — the guided sampling the paper's §V suggests
    /// investigating.
    ComponentStratified,
}

/// The complete source-sampling specification — what to select, how to
/// draw it, and the seed — shared by [`BetweennessConfig`] and
/// [`crate::kbetweenness::KBetweennessConfig`] so the two kernels can
/// never drift apart in sampling semantics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SamplingSpec {
    /// Source selection (exact vs. sampled).
    pub selection: SourceSelection,
    /// Sampling strategy when `selection` is not `All`.
    pub strategy: SamplingStrategy,
    /// Master seed for reproducible sampling.
    pub seed: u64,
}

impl SamplingSpec {
    /// Every vertex as a source (exact computation).
    pub fn exact() -> Self {
        Self::default()
    }

    /// `count` uniformly sampled sources under `seed`.
    pub fn count(count: usize, seed: u64) -> Self {
        Self {
            selection: SourceSelection::Count(count),
            seed,
            ..Self::default()
        }
    }

    /// A `fraction` of all vertices, uniformly sampled under `seed`.
    pub fn fraction(fraction: f64, seed: u64) -> Self {
        Self {
            selection: SourceSelection::Fraction(fraction),
            seed,
            ..Self::default()
        }
    }

    /// Replace the sampling strategy, keeping selection and seed.
    pub fn with_strategy(mut self, strategy: SamplingStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Check the spec for invalid values (a sampling fraction outside
    /// `[0, 1]`).
    ///
    /// # Errors
    /// [`GraphError::InvalidArgument`] when the spec cannot be sampled.
    pub fn validate(&self) -> Result<(), GraphError> {
        if let SourceSelection::Fraction(f) = self.selection {
            if !(0.0..=1.0).contains(&f) {
                return Err(GraphError::InvalidArgument(format!(
                    "sampling fraction must lie in [0, 1], got {f}"
                )));
            }
        }
        Ok(())
    }
}

/// Configuration for [`betweenness_centrality`].
#[derive(Debug, Clone)]
pub struct BetweennessConfig {
    /// Source sampling: selection, strategy, and seed.
    pub sampling: SamplingSpec,
    /// Scale sampled scores by `n / |sample|` so they estimate the exact
    /// totals (on by default; turn off to get raw partial sums).
    pub rescale: bool,
    /// Count each unordered pair once by halving undirected scores
    /// (off by default: raw Brandes totals, like GraphCT).
    pub halve_undirected: bool,
    /// Direction-optimization tuning for the per-source forward BFS
    /// (hybrid by default; force push/pull for ablation).
    pub bfs: BfsConfig,
    /// MS-BFS batch width for the forward passes (the CLI's `--batch`).
    /// `1` (the default) runs the classic per-source Brandes forward
    /// pass.  Larger widths — clamped to
    /// [`MAX_BATCH`](crate::msbfs::MAX_BATCH) — precompute source
    /// distances with the bit-parallel [`crate::msbfs::MsBfs`] engine,
    /// sharing each adjacency scan across up to 64 sources, then rebuild
    /// per-source path counts from those distances.  Sources run in
    /// waves of `MAX_BATCH`, each accumulated before the next is
    /// traversed, so distance storage is one wave's `MAX_BATCH · n`
    /// words at any sample size.
    pub batch: usize,
}

impl Default for BetweennessConfig {
    fn default() -> Self {
        Self {
            sampling: SamplingSpec::exact(),
            rescale: true,
            halve_undirected: false,
            bfs: BfsConfig::default(),
            batch: 1,
        }
    }
}

impl BetweennessConfig {
    /// Exact betweenness.
    pub fn exact() -> Self {
        Self::default()
    }

    /// Approximate betweenness from `count` sampled sources.
    pub fn sampled(count: usize, seed: u64) -> Self {
        Self {
            sampling: SamplingSpec::count(count, seed),
            ..Self::default()
        }
    }

    /// Approximate betweenness sampling a `fraction` of all vertices.
    pub fn fraction(fraction: f64, seed: u64) -> Self {
        Self {
            sampling: SamplingSpec::fraction(fraction, seed),
            ..Self::default()
        }
    }
}

/// Outcome of a betweenness computation.
#[derive(Debug, Clone)]
pub struct BetweennessResult {
    /// Per-vertex centrality scores.
    pub scores: Vec<f64>,
    /// The sources actually used (ascending).
    pub sources: Vec<VertexId>,
}

/// Per-source scratch space, reused across the sources a worker
/// processes so allocation cost is paid once per thread, not per source.
pub(crate) struct Workspace {
    dist: Vec<u32>,
    sigma: Vec<f64>,
    delta: Vec<f64>,
    order: Vec<VertexId>,
    /// The level driver's unvisited-list scratch for pull levels.
    unvisited: Vec<VertexId>,
}

impl Workspace {
    pub(crate) fn new(n: usize) -> Self {
        Self {
            dist: vec![u32::MAX; n],
            sigma: vec![0.0; n],
            delta: vec![0.0; n],
            order: Vec::with_capacity(n),
            unvisited: Vec::new(),
        }
    }

    /// Reset only the vertices touched by the previous source — O(visited)
    /// instead of O(n), a large win on graphs with many small components.
    fn reset_touched(&mut self) {
        for &v in &self.order {
            self.dist[v as usize] = u32::MAX;
            self.sigma[v as usize] = 0.0;
            self.delta[v as usize] = 0.0;
        }
        self.order.clear();
    }
}

/// One Brandes source iteration: level-synchronous direction-optimizing
/// BFS with shortest-path counting, then backward dependency
/// accumulation into `scores`.
///
/// `predecessors` supplies in-neighborhoods for pull levels and the
/// backward pass: the graph itself when symmetric (undirected), its
/// transpose otherwise.  `degrees` caches `graph.degrees()`.
///
/// Sigma counting is direction-agnostic because the pass is
/// level-synchronous: when level `d` expands, every level-`d` sigma is
/// final, so a push level adds `sigma[u]` into each out-neighbor at
/// `d + 1` while a pull level has each unreached vertex sum the sigmas
/// of *all* its level-`d` in-neighbors in one scan (no early exit —
/// unlike a plain reachability pull, path counting must see every
/// parent).  Both orders accumulate the same sums.
///
/// Telemetry-free by design: per-source reporting lives in the callers.
pub(crate) fn accumulate_source(
    graph: &CsrGraph,
    predecessors: &CsrGraph,
    source: VertexId,
    bfs: &BfsConfig,
    degrees: &[usize],
    ws: &mut Workspace,
    scores: &mut [f64],
) {
    let n = graph.num_vertices();
    ws.reset_touched();
    ws.dist[source as usize] = 0;
    ws.sigma[source as usize] = 1.0;
    ws.order.push(source);

    // Forward: expand `order` one level at a time, choosing push or pull
    // per level through the same driver as `HybridBfs`.
    let mut level_start = 0usize;
    let mut driver = LevelDriver::new(
        bfs,
        n,
        graph.num_arcs(),
        degrees[source as usize],
        &mut ws.unvisited,
    );
    while level_start < ws.order.len() {
        let level_end = ws.order.len();
        let direction = driver.next_direction(level_end - level_start);
        let depth = driver.depth();
        match direction {
            Direction::Push => {
                for i in level_start..level_end {
                    let u = ws.order[i];
                    for &v in graph.neighbors(u) {
                        let dv = &mut ws.dist[v as usize];
                        if *dv == u32::MAX {
                            *dv = depth + 1;
                            ws.order.push(v);
                        }
                        if ws.dist[v as usize] == depth + 1 {
                            ws.sigma[v as usize] += ws.sigma[u as usize];
                        }
                    }
                }
            }
            Direction::Pull => {
                let dist = &ws.dist;
                for &v in driver.unvisited(|v| dist[v as usize] == u32::MAX) {
                    for &u in predecessors.neighbors(v) {
                        if ws.dist[u as usize] == depth {
                            if ws.dist[v as usize] == u32::MAX {
                                ws.dist[v as usize] = depth + 1;
                                ws.order.push(v);
                            }
                            ws.sigma[v as usize] += ws.sigma[u as usize];
                        }
                    }
                }
            }
        }
        driver.finish_level(
            ws.order[level_end..]
                .iter()
                .map(|&v| degrees[v as usize])
                .sum(),
        );
        level_start = level_end;
    }

    backward_pass(predecessors, source, ws, scores);
}

/// Brandes dependency accumulation: walk the visitation order backward,
/// pushing each vertex's dependency onto its shortest-path predecessors.
///
/// Reverse BFS order guarantees all successors are final (`order` is
/// appended level by level, so reversing it visits non-increasing
/// distances even when levels mixed push and pull — or were rebuilt from
/// precomputed distances by [`accumulate_source_with_levels`]).
fn backward_pass(
    predecessors: &CsrGraph,
    source: VertexId,
    ws: &mut Workspace,
    scores: &mut [f64],
) {
    for &w in ws.order.iter().rev() {
        let dw = ws.dist[w as usize];
        let coeff = (1.0 + ws.delta[w as usize]) / ws.sigma[w as usize];
        for &v in predecessors.neighbors(w) {
            let dv = ws.dist[v as usize];
            // dv == u32::MAX marks in-neighbors unreachable from the
            // source (possible in directed graphs); they are not
            // predecessors on any shortest path.
            if dv != u32::MAX && dv + 1 == dw {
                ws.delta[v as usize] += ws.sigma[v as usize] * coeff;
            }
        }
        if w != source {
            scores[w as usize] += ws.delta[w as usize];
        }
    }
}

/// One Brandes source iteration driven by *precomputed* BFS levels (from
/// the batched [`crate::msbfs::MsBfs`] forward pass) instead of an
/// inline traversal.
///
/// The visitation order is rebuilt from `levels` with a counting sort —
/// level-major, ascending vertex id within a level, which satisfies the
/// only ordering the sigma and backward passes need (all of level `d`
/// before any of level `d + 1`).  Sigma counting then scans each
/// vertex's in-neighborhood once: parents are exactly the in-neighbors
/// one level nearer the source.
///
/// Identical scores to [`accumulate_source`] up to floating-point
/// summation order (parents are folded in in-neighbor order rather than
/// frontier order).
pub(crate) fn accumulate_source_with_levels(
    predecessors: &CsrGraph,
    source: VertexId,
    levels: &[u32],
    ws: &mut Workspace,
    scores: &mut [f64],
) {
    ws.reset_touched();

    // Counting sort of the reached vertices by level.
    let mut counts: Vec<usize> = Vec::new();
    let mut reached = 0usize;
    for &d in levels {
        if d != u32::MAX {
            let d = d as usize;
            if d >= counts.len() {
                counts.resize(d + 1, 0);
            }
            counts[d] += 1;
            reached += 1;
        }
    }
    let mut cursor = Vec::with_capacity(counts.len());
    let mut acc = 0usize;
    for &c in &counts {
        cursor.push(acc);
        acc += c;
    }
    ws.order.resize(reached, 0);
    for (v, &d) in levels.iter().enumerate() {
        if d != u32::MAX {
            let slot = &mut cursor[d as usize];
            ws.order[*slot] = v as VertexId;
            *slot += 1;
            ws.dist[v] = d;
        }
    }

    // Sigma forward over the rebuilt order: every parent (one level
    // nearer) is final before its children scan, exactly as in the
    // level-synchronous inline pass.
    ws.sigma[source as usize] = 1.0;
    for &v in &ws.order {
        if v == source {
            continue;
        }
        let dv = ws.dist[v as usize];
        let mut sig = 0.0;
        for &u in predecessors.neighbors(v) {
            let du = ws.dist[u as usize];
            if du != u32::MAX && du + 1 == dv {
                sig += ws.sigma[u as usize];
            }
        }
        ws.sigma[v as usize] = sig;
    }

    backward_pass(predecessors, source, ws, scores);
}

/// Per-source progress telemetry, kept out of [`accumulate_source`] and
/// off the inlined fast path: callers gate on
/// [`graphct_trace::enabled`] so the disabled path pays one relaxed
/// load per source.
#[cold]
#[inline(never)]
fn report_source(source: VertexId, visited: usize, elapsed: std::time::Duration) {
    crate::telemetry::BC_SOURCES_PROCESSED.incr();
    crate::telemetry::BC_SOURCE_NS.record_duration(elapsed);
    graphct_trace::event!("bc_source", src = source, visited = visited);
}

/// Select the source vertices for `spec` (deterministic in the seed).
///
/// # Panics
/// On an invalid spec (sampling fraction outside `[0, 1]`); kernels
/// validate via [`SamplingSpec::validate`] first and return an error
/// instead.
pub fn select_sources(graph: &CsrGraph, spec: &SamplingSpec) -> Vec<VertexId> {
    let n = graph.num_vertices();
    let requested = match spec.selection {
        SourceSelection::All => return (0..n as VertexId).collect(),
        SourceSelection::Count(c) => c.min(n),
        SourceSelection::Fraction(f) => {
            assert!(
                (0.0..=1.0).contains(&f),
                "sampling fraction must lie in [0, 1]"
            );
            ((n as f64 * f).round() as usize).clamp(usize::from(n > 0 && f > 0.0), n)
        }
    };
    if requested >= n {
        return (0..n as VertexId).collect();
    }

    let mut rng = task_rng(spec.seed, 0x5e1ec7);
    let mut sources: Vec<VertexId> = match spec.strategy {
        SamplingStrategy::Uniform => {
            let mut all: Vec<VertexId> = (0..n as VertexId).collect();
            all.shuffle(&mut rng);
            all.truncate(requested);
            all
        }
        SamplingStrategy::ComponentStratified => {
            // Largest-remainder apportionment of the budget across
            // components: each component's ideal share is
            // `size / n × requested`; floors are granted first and the
            // leftover goes to the largest fractional remainders.  This
            // keeps the sample proportional even when tiny components
            // vastly outnumber the budget (the Twitter graphs' pair
            // fringe), while guaranteeing the big components are never
            // starved — the failure mode of unguided sampling the paper
            // conjectures about in §V.
            let summary = ComponentSummary::compute(graph);
            let mut members: std::collections::HashMap<VertexId, Vec<VertexId>> =
                std::collections::HashMap::new();
            for (v, &c) in summary.colors.iter().enumerate() {
                members.entry(c).or_default().push(v as VertexId);
            }
            let ideal: Vec<f64> = summary
                .by_size
                .iter()
                .map(|&(_, size)| size as f64 / n as f64 * requested as f64)
                .collect();
            let mut take: Vec<usize> = ideal.iter().map(|&x| x.floor() as usize).collect();
            let mut leftover = requested - take.iter().sum::<usize>();
            // Distribute the remainder by descending fractional part,
            // ties broken toward larger components (they come first in
            // by_size), capped by component size.
            let mut order: Vec<usize> = (0..ideal.len()).collect();
            order.sort_by(|&a, &b| {
                let fa = ideal[a] - ideal[a].floor();
                let fb = ideal[b] - ideal[b].floor();
                fb.partial_cmp(&fa).unwrap().then(a.cmp(&b))
            });
            for &i in order.iter().cycle().take(order.len() * 2) {
                if leftover == 0 {
                    break;
                }
                if take[i] < summary.by_size[i].1 {
                    take[i] += 1;
                    leftover -= 1;
                }
            }
            let mut picked = Vec::with_capacity(requested);
            for (i, &(label, _)) in summary.by_size.iter().enumerate() {
                if take[i] == 0 {
                    continue;
                }
                let pool = members.get_mut(&label).expect("component has members");
                pool.shuffle(&mut rng);
                picked.extend_from_slice(&pool[..take[i].min(pool.len())]);
            }
            picked
        }
    };
    sources.sort_unstable();
    sources.dedup();
    sources
}

/// Coarse parallelism over sources, shared by the betweenness kernels:
/// each task folds a chunk of `sources` into a private score vector,
/// amortizing one `workspace()` over many source iterations, and the
/// vectors are summed.  `accumulate` also gets each source's index in
/// `sources`.
pub(crate) fn sum_over_sources<W>(
    sources: &[VertexId],
    n: usize,
    workspace: impl Fn() -> W + Sync,
    accumulate: impl Fn(usize, VertexId, &mut W, &mut [f64]) + Sync,
) -> Vec<f64> {
    let chunk = (sources.len() / (rayon::current_num_threads() * 4).max(1)).max(1);
    sources
        .par_chunks(chunk)
        .enumerate()
        .map(|(c, chunk_sources)| {
            let mut ws = workspace();
            let mut local = vec![0.0f64; n];
            for (i, &s) in chunk_sources.iter().enumerate() {
                accumulate(c * chunk + i, s, &mut ws, &mut local);
            }
            local
        })
        .reduce(
            || vec![0.0f64; n],
            |mut a, b| {
                a.iter_mut().zip(b).for_each(|(x, y)| *x += y);
                a
            },
        )
}

/// Compute betweenness centrality under `config`.
///
/// Parallelism is coarse over sources: workers fold disjoint chunks of
/// the source list into private score vectors that are summed pairwise.
/// With `rescale`, sampled scores are multiplied by `n / |sources|` to
/// estimate the all-sources totals.
///
/// # Errors
/// [`GraphError::InvalidArgument`] when the sampling spec is invalid
/// (fraction outside `[0, 1]`).
///
/// # Examples
///
/// ```
/// use graphct_core::{builder::build_undirected_simple, EdgeList};
/// use graphct_kernels::betweenness::{betweenness_centrality, BetweennessConfig};
///
/// // Path 0–1–2: the middle vertex carries the single (0,2) pair, both
/// // orderings.
/// let g = build_undirected_simple(&EdgeList::from_pairs(vec![(0, 1), (1, 2)])).unwrap();
/// let bc = betweenness_centrality(&g, &BetweennessConfig::exact()).unwrap();
/// assert_eq!(bc.scores, vec![0.0, 2.0, 0.0]);
/// ```
pub fn betweenness_centrality(
    graph: &CsrGraph,
    config: &BetweennessConfig,
) -> Result<BetweennessResult, GraphError> {
    config.sampling.validate()?;
    let n = graph.num_vertices();
    let sources = select_sources(graph, &config.sampling);
    if n == 0 || sources.is_empty() {
        return Ok(BetweennessResult {
            scores: vec![0.0; n],
            sources,
        });
    }
    graphct_mt::register_profiling_threads();
    let _span = graphct_trace::span!("bc", vertices = n, sources = sources.len());

    // Directed graphs need in-neighborhoods for dependency accumulation;
    // undirected adjacency is already symmetric.
    let transpose;
    let predecessors: &CsrGraph = if graph.is_directed() {
        transpose = graph.transpose();
        &transpose
    } else {
        graph
    };

    let workspace = || Workspace::new(n);
    let mut scores = if config.batch > 1 {
        // Batched forward pass: MS-BFS computes a wave's distances (up
        // to 64 sources per adjacency scan), then each source rebuilds
        // path counts from its levels.  Levels cost 4n bytes per source,
        // so only one wave's are live at a time.
        let engine = crate::bfs::HybridBfs::with_config(graph, config.bfs);
        let msbfs = crate::msbfs::MsBfs::new(&engine);
        sources
            .chunks(crate::msbfs::MAX_BATCH)
            .map(|wave| {
                let levels = msbfs.levels_many(wave, config.batch);
                sum_over_sources(wave, n, workspace, |i, s, ws, local| {
                    let t = graphct_trace::enabled().then(std::time::Instant::now);
                    accumulate_source_with_levels(predecessors, s, &levels[i], ws, local);
                    if let Some(t) = t {
                        report_source(s, ws.order.len(), t.elapsed());
                    }
                })
            })
            .reduce(|mut total, part| {
                total.iter_mut().zip(part).for_each(|(x, y)| *x += y);
                total
            })
            .expect("sources is non-empty")
    } else {
        let degrees = graph.degrees();
        sum_over_sources(&sources, n, workspace, |_, s, ws, local| {
            let t = graphct_trace::enabled().then(std::time::Instant::now);
            accumulate_source(graph, predecessors, s, &config.bfs, &degrees, ws, local);
            if let Some(t) = t {
                report_source(s, ws.order.len(), t.elapsed());
            }
        })
    };

    let mut scale = 1.0;
    if config.rescale && sources.len() < n {
        scale *= n as f64 / sources.len() as f64;
    }
    if config.halve_undirected && !graph.is_directed() {
        scale *= 0.5;
    }
    if scale != 1.0 {
        scores.par_iter_mut().for_each(|s| *s *= scale);
    }

    Ok(BetweennessResult { scores, sources })
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphct_core::builder::build_undirected_simple;
    use graphct_core::EdgeList;

    fn graph(edges: &[(u32, u32)]) -> CsrGraph {
        build_undirected_simple(&EdgeList::from_pairs(edges.to_vec())).unwrap()
    }

    fn exact(g: &CsrGraph) -> Vec<f64> {
        betweenness_centrality(g, &BetweennessConfig::exact())
            .unwrap()
            .scores
    }

    /// O(n^3)-ish oracle: count shortest paths through v by enumeration
    /// over all-pairs BFS path DAGs.
    fn brute_force_bc(g: &CsrGraph) -> Vec<f64> {
        let n = g.num_vertices();
        let mut bc = vec![0.0; n];
        for s in 0..n as u32 {
            let dist = crate::bfs::sequential_bfs_levels(g, s);
            // sigma via dynamic programming in distance order
            let mut order: Vec<u32> = (0..n as u32)
                .filter(|&v| dist[v as usize] != u32::MAX)
                .collect();
            order.sort_by_key(|&v| dist[v as usize]);
            let mut sigma = vec![0.0; n];
            sigma[s as usize] = 1.0;
            for &v in &order {
                if v == s {
                    continue;
                }
                for &u in g.neighbors(v) {
                    if dist[u as usize] + 1 == dist[v as usize] {
                        sigma[v as usize] += sigma[u as usize];
                    }
                }
            }
            // delta backward
            let mut delta = vec![0.0; n];
            for &w in order.iter().rev() {
                for &u in g.neighbors(w) {
                    if dist[u as usize] + 1 == dist[w as usize] {
                        delta[u as usize] +=
                            sigma[u as usize] / sigma[w as usize] * (1.0 + delta[w as usize]);
                    }
                }
                if w != s {
                    bc[w as usize] += delta[w as usize];
                }
            }
        }
        bc
    }

    #[test]
    fn path_graph_known_values() {
        // Path 0-1-2-3-4: ordered-pair BC of vertex i is 2·(i)·(n-1-i).
        let g = graph(&[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let bc = exact(&g);
        let expected = [0.0, 6.0, 8.0, 6.0, 0.0];
        for (i, (&got, &want)) in bc.iter().zip(&expected).enumerate() {
            assert!((got - want).abs() < 1e-9, "vertex {i}: {got} vs {want}");
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn star_center_carries_all_pairs() {
        // Star with center 0 and 4 leaves: center BC = 2·C(4,2) = 12.
        let g = graph(&[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let bc = exact(&g);
        assert!((bc[0] - 12.0).abs() < 1e-9);
        for leaf in 1..5 {
            assert!(bc[leaf].abs() < 1e-12);
        }
    }

    #[test]
    fn complete_graph_is_zero() {
        let g = graph(&[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        assert!(exact(&g).iter().all(|&b| b.abs() < 1e-12));
    }

    #[test]
    fn cycle_even_split() {
        // 6-cycle: every vertex lies on 1/2 of each antipodal pair's 2
        // shortest paths plus full paths for nearer pairs. By symmetry
        // all scores equal; check symmetry + against brute force.
        let g = graph(&[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let bc = exact(&g);
        let brute = brute_force_bc(&g);
        for v in 0..6 {
            assert!((bc[v] - brute[v]).abs() < 1e-9);
            assert!((bc[v] - bc[0]).abs() < 1e-9);
        }
    }

    #[test]
    fn matches_brute_force_on_random_graphs() {
        let mut x = 3u64;
        for trial in 0..4 {
            let mut edges = Vec::new();
            for _ in 0..60 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(trial + 11);
                let s = ((x >> 32) % 30) as u32;
                x = x.wrapping_mul(6364136223846793005).wrapping_add(trial + 11);
                let t = ((x >> 32) % 30) as u32;
                edges.push((s, t));
            }
            let g = graph(&edges);
            let fast = exact(&g);
            let brute = brute_force_bc(&g);
            for v in 0..g.num_vertices() {
                assert!(
                    (fast[v] - brute[v]).abs() < 1e-6,
                    "trial {trial} vertex {v}: {} vs {}",
                    fast[v],
                    brute[v]
                );
            }
        }
    }

    #[test]
    fn forward_pass_directions_agree() {
        // The hybrid forward pass must count shortest paths identically
        // whether levels push, pull, or mix — on undirected and directed
        // graphs alike.
        let mut x = 17u64;
        let mut edges = Vec::new();
        for _ in 0..150 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(5);
            let s = ((x >> 32) % 40) as u32;
            x = x.wrapping_mul(6364136223846793005).wrapping_add(5);
            let t = ((x >> 32) % 40) as u32;
            edges.push((s, t));
        }
        let configs = [
            BfsConfig::push_only(),
            BfsConfig::pull_only(),
            BfsConfig::hybrid(),
            BfsConfig::hybrid().with_alpha(1e12).with_beta(1e12),
        ];
        let undirected = graph(&edges);
        let directed = graphct_core::builder::build_directed_simple(&EdgeList::from_pairs(
            edges.iter().filter(|&&(s, t)| s != t).copied().collect(),
        ))
        .unwrap();
        for g in [&undirected, &directed] {
            let baseline = betweenness_centrality(
                g,
                &BetweennessConfig {
                    bfs: BfsConfig::push_only(),
                    ..BetweennessConfig::exact()
                },
            )
            .unwrap()
            .scores;
            for cfg in &configs {
                let got = betweenness_centrality(
                    g,
                    &BetweennessConfig {
                        bfs: *cfg,
                        ..BetweennessConfig::exact()
                    },
                )
                .unwrap()
                .scores;
                for v in 0..g.num_vertices() {
                    assert!(
                        (got[v] - baseline[v]).abs() < 1e-9,
                        "directed={} {:?} vertex {v}: {} vs {}",
                        g.is_directed(),
                        cfg.frontier,
                        got[v],
                        baseline[v]
                    );
                }
            }
        }
    }

    #[test]
    fn batched_forward_pass_matches_classic() {
        // Same scores (up to fp summation order) whether the forward
        // pass runs inline per source or batched through MS-BFS — on
        // undirected and directed graphs, exact (three waves of
        // `MAX_BATCH` sources) and sampled.
        let mut x = 29u64;
        let mut edges = Vec::new();
        for _ in 0..600 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(9);
            let s = ((x >> 32) % 150) as u32;
            x = x.wrapping_mul(6364136223846793005).wrapping_add(9);
            let t = ((x >> 32) % 150) as u32;
            edges.push((s, t));
        }
        let undirected = graph(&edges);
        let directed = graphct_core::builder::build_directed_simple(&EdgeList::from_pairs(
            edges.iter().filter(|&&(s, t)| s != t).copied().collect(),
        ))
        .unwrap();
        for g in [&undirected, &directed] {
            for base in [
                BetweennessConfig::exact(),
                BetweennessConfig::sampled(13, 5),
            ] {
                let classic = betweenness_centrality(g, &base).unwrap();
                for batch in [2, 64, 999] {
                    let cfg = BetweennessConfig {
                        batch,
                        ..base.clone()
                    };
                    let batched = betweenness_centrality(g, &cfg).unwrap();
                    assert_eq!(batched.sources, classic.sources);
                    for v in 0..g.num_vertices() {
                        assert!(
                            (batched.scores[v] - classic.scores[v]).abs() < 1e-9,
                            "directed={} batch={batch} vertex {v}: {} vs {}",
                            g.is_directed(),
                            batched.scores[v],
                            classic.scores[v]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn levels_driven_accumulation_matches_brute_force() {
        let g = graph(&[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3), (2, 5)]);
        let n = g.num_vertices();
        let brute = brute_force_bc(&g);
        let mut ws = Workspace::new(n);
        let mut scores = vec![0.0; n];
        for s in 0..n as u32 {
            let levels = crate::bfs::sequential_bfs_levels(&g, s);
            accumulate_source_with_levels(&g, s, &levels, &mut ws, &mut scores);
        }
        for v in 0..n {
            assert!(
                (scores[v] - brute[v]).abs() < 1e-9,
                "vertex {v}: {} vs {}",
                scores[v],
                brute[v]
            );
        }
    }

    #[test]
    fn disconnected_components_accumulate_independently() {
        // Two paths: 0-1-2 and 3-4-5. Middle vertices get BC 2.
        let g = graph(&[(0, 1), (1, 2), (3, 4), (4, 5)]);
        let bc = exact(&g);
        assert_eq!(bc, vec![0.0, 2.0, 0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn sampling_all_vertices_equals_exact() {
        let g = graph(&[(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)]);
        let exact_scores = exact(&g);
        let sampled = betweenness_centrality(&g, &BetweennessConfig::fraction(1.0, 42)).unwrap();
        assert_eq!(sampled.sources.len(), g.num_vertices());
        for v in 0..g.num_vertices() {
            assert!((sampled.scores[v] - exact_scores[v]).abs() < 1e-9);
        }
    }

    #[test]
    fn sampled_run_is_deterministic_in_seed() {
        let g = graph(&[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)]);
        let a = betweenness_centrality(&g, &BetweennessConfig::sampled(3, 7)).unwrap();
        let b = betweenness_centrality(&g, &BetweennessConfig::sampled(3, 7)).unwrap();
        assert_eq!(a.sources, b.sources);
        assert_eq!(a.scores, b.scores);
        let c = betweenness_centrality(&g, &BetweennessConfig::sampled(3, 8)).unwrap();
        assert_ne!(a.sources, c.sources);
    }

    #[test]
    fn per_source_contributions_sum_to_exact() {
        // Linearity check that also makes sampling unbiased: summing the
        // unrescaled single-source runs over every source reproduces the
        // exact scores.
        let g = graph(&[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3), (2, 5)]);
        let n = g.num_vertices();
        let exact_scores = exact(&g);
        let mut sum = vec![0.0; n];
        let degrees = g.degrees();
        for s in 0..n as u32 {
            let ws_scores = {
                let mut ws = Workspace::new(n);
                let mut local = vec![0.0; n];
                accumulate_source(
                    &g,
                    &g,
                    s,
                    &BfsConfig::default(),
                    &degrees,
                    &mut ws,
                    &mut local,
                );
                local
            };
            for v in 0..n {
                sum[v] += ws_scores[v];
            }
        }
        for v in 0..n {
            assert!(
                (sum[v] - exact_scores[v]).abs() < 1e-9,
                "vertex {v}: {} vs {}",
                sum[v],
                exact_scores[v]
            );
        }
    }

    #[test]
    fn stratified_sampling_covers_all_components() {
        // Three far-apart components; 3 samples must hit all three under
        // stratified sampling.
        let g = graph(&[(0, 1), (1, 2), (10, 11), (11, 12), (20, 21), (21, 22)]);
        let spec = SamplingSpec::count(3, 1).with_strategy(SamplingStrategy::ComponentStratified);
        let sources = select_sources(&g, &spec);
        assert_eq!(sources.len(), 3);
        let comp = |v: u32| -> u32 {
            if v <= 2 {
                0
            } else if (10..=12).contains(&v) {
                1
            } else if (20..=22).contains(&v) {
                2
            } else {
                3 // isolated vertices from padding
            }
        };
        let touched: std::collections::HashSet<u32> = sources.iter().map(|&s| comp(s)).collect();
        // The isolated padding vertices (3..10, 13..20) form singleton
        // components that may claim samples; the three real components
        // are the largest so proportional allocation visits them first.
        assert!(touched.contains(&0) && touched.contains(&1) && touched.contains(&2));
    }

    #[test]
    fn fraction_bounds_validated() {
        let g = graph(&[(0, 1)]);
        let cfg = BetweennessConfig::fraction(0.5, 0);
        let r = betweenness_centrality(&g, &cfg).unwrap();
        assert_eq!(r.sources.len(), 1);
    }

    #[test]
    fn bad_fraction_is_an_error() {
        let g = graph(&[(0, 1)]);
        let err = betweenness_centrality(&g, &BetweennessConfig::fraction(1.5, 0)).unwrap_err();
        assert!(matches!(err, GraphError::InvalidArgument(_)));
        assert!(betweenness_centrality(&g, &BetweennessConfig::fraction(-0.1, 0)).is_err());
    }

    #[test]
    #[should_panic(expected = "sampling fraction")]
    fn select_sources_asserts_fraction_bounds() {
        let g = graph(&[(0, 1)]);
        let _ = select_sources(&g, &SamplingSpec::fraction(1.5, 0));
    }

    #[test]
    fn halve_undirected_halves() {
        let g = graph(&[(0, 1), (1, 2)]);
        let full = exact(&g);
        let halved = betweenness_centrality(
            &g,
            &BetweennessConfig {
                halve_undirected: true,
                ..BetweennessConfig::exact()
            },
        )
        .unwrap();
        assert!((halved.scores[1] - full[1] / 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_returns_empty() {
        let g = CsrGraph::empty(0, false);
        let r = betweenness_centrality(&g, &BetweennessConfig::exact()).unwrap();
        assert!(r.scores.is_empty());
        assert!(r.sources.is_empty());
    }

    #[test]
    fn directed_graph_brandes() {
        // Directed path 0→1→2: vertex 1 lies on the single (0,2) path.
        let g = graphct_core::builder::build_directed_simple(&EdgeList::from_pairs(vec![
            (0, 1),
            (1, 2),
        ]))
        .unwrap();
        let bc = exact(&g);
        assert_eq!(bc, vec![0.0, 1.0, 0.0]);
    }
}
