//! Breadth-first search.
//!
//! The workhorse traversal: every path-based kernel (betweenness,
//! diameter estimation, component extraction by script) is built on a
//! level-synchronous BFS.  The engine is *direction-optimizing* (Beamer
//! et al., SC'12): sparse frontiers expand top-down ("push"), dense
//! frontiers are absorbed bottom-up ("pull"), and [`HybridBfs`] switches
//! per level based on how many edges each step would inspect; the
//! per-level policy lives in the crate's one level driver
//! (`traverse::LevelDriver`), shared with the batched and betweenness
//! traversals.  Push and pull can also be forced for every level.
//!
//! [`HybridBfs`] is **the** BFS engine: construct it once per graph
//! (caching the degree table and, when needed, the transpose) and call
//! [`HybridBfs::levels`] or [`HybridBfs::run`] per source.
//! [`sequential_bfs_levels`] is deliberately *not* routed through it: it
//! is the textbook queue implementation kept as the independent
//! verification oracle.

use crate::traverse::LevelDriver;
use graphct_core::{CsrGraph, GraphView, VertexId};
use graphct_mt::{AtomicBitmap, AtomicU32Array, Frontier};
use rayon::prelude::*;

/// Level value for vertices not reached by the search.
pub const UNREACHED: u32 = u32::MAX;

/// Default push→pull threshold: switch to bottom-up when the frontier's
/// incident edges exceed `1/alpha` of the edges incident to unexplored
/// vertices.
pub const DEFAULT_ALPHA: f64 = 15.0;

/// Default pull→push threshold: switch back to top-down when the
/// frontier shrinks below `1/beta` of all vertices.
pub const DEFAULT_BETA: f64 = 18.0;

/// Frontier / direction policy for [`HybridBfs`].
///
/// A level-synchronous BFS can expand a level two ways:
///
/// * **push** (top-down): scan the out-edges of every frontier vertex and
///   claim unvisited targets — work proportional to the edges incident to
///   the frontier, ideal while the frontier is sparse;
/// * **pull** (bottom-up): scan the in-edges of every *unvisited* vertex
///   and stop at the first neighbor on the frontier — cheaper once the
///   frontier is dense, because most unvisited vertices find a frontier
///   parent within a few probes and claimed vertices need no atomics.
///
/// [`FrontierKind::Hybrid`] switches per level using the
/// edges-in-frontier vs. unexplored-edges heuristic documented on
/// [`BfsConfig`]; the other variants force a single strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FrontierKind {
    /// Force top-down expansion of a packed vertex queue on every level
    /// (the classic GraphCT formulation; best for the persistently sparse
    /// frontiers of high-diameter graphs).
    Push,
    /// Force bottom-up expansion on every level.  Requires in-neighbors:
    /// on directed graphs [`HybridBfs`] materializes the transpose.
    Pull,
    /// Direction-optimizing: start pushing, switch to pull when the
    /// frontier becomes edge-dense, switch back when it thins out.
    #[default]
    Hybrid,
}

impl std::str::FromStr for FrontierKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "push" => Ok(FrontierKind::Push),
            "pull" => Ok(FrontierKind::Pull),
            "hybrid" => Ok(FrontierKind::Hybrid),
            other => Err(format!(
                "unknown frontier kind `{other}` (expected push|pull|hybrid)"
            )),
        }
    }
}

/// Tuning for the direction-optimizing BFS.
///
/// With `m_f` = edges incident to the current frontier, `m_u` = edges
/// incident to still-unexplored vertices, `n_f` = frontier vertex count
/// and `n` = total vertices, the per-level switch criterion is:
///
/// * push → pull when `m_f > m_u / alpha` — the frontier is about to
///   inspect a large share of the remaining edges, so probing unvisited
///   vertices bottom-up (with early exit at the first frontier parent)
///   inspects fewer;
/// * pull → push when `n_f < n / beta` — the frontier has thinned to the
///   point that sweeping every unvisited vertex costs more than pushing
///   the few frontier edges directly.
///
/// `alpha`/`beta` default to [`DEFAULT_ALPHA`]/[`DEFAULT_BETA`] (the
/// values from Beamer's GAP reference implementation).  Larger `alpha`
/// lowers the edge threshold and switches to pull *sooner*; larger
/// `beta` lowers the vertex threshold and keeps pulling *longer*.  A
/// level with no unexplored edges left always pushes (the remaining
/// frontier edges are cheaper than any bottom-up sweep).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BfsConfig {
    /// Direction policy (forced push or pull, or per-level hybrid).
    pub frontier: FrontierKind,
    /// Push→pull threshold on the edge ratio `m_f / m_u`.
    pub alpha: f64,
    /// Pull→push threshold on the vertex ratio `n / n_f`.
    pub beta: f64,
}

impl Default for BfsConfig {
    fn default() -> Self {
        Self {
            frontier: FrontierKind::default(),
            alpha: DEFAULT_ALPHA,
            beta: DEFAULT_BETA,
        }
    }
}

impl BfsConfig {
    /// Direction-optimizing config with default thresholds.
    pub fn hybrid() -> Self {
        Self::default()
    }

    /// Force top-down (push) expansion on every level.
    pub fn push_only() -> Self {
        Self {
            frontier: FrontierKind::Push,
            ..Self::default()
        }
    }

    /// Force bottom-up (pull) expansion on every level.
    pub fn pull_only() -> Self {
        Self {
            frontier: FrontierKind::Pull,
            ..Self::default()
        }
    }

    /// Config equivalent to a bare [`FrontierKind`] with default
    /// thresholds.
    pub fn from_kind(kind: FrontierKind) -> Self {
        Self {
            frontier: kind,
            ..Self::default()
        }
    }

    /// Replace the push→pull threshold.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        assert!(alpha > 0.0, "alpha must be positive");
        self.alpha = alpha;
        self
    }

    /// Replace the pull→push threshold.
    pub fn with_beta(mut self, beta: f64) -> Self {
        assert!(beta > 0.0, "beta must be positive");
        self.beta = beta;
        self
    }

    /// `true` when this config can ever take a bottom-up step (and thus
    /// needs in-neighbor access).
    pub fn may_pull(&self) -> bool {
        matches!(self.frontier, FrontierKind::Pull | FrontierKind::Hybrid)
    }
}

/// Expansion direction a level was (or will be) processed with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Top-down: frontier vertices push to unvisited out-neighbors.
    Push,
    /// Bottom-up: unvisited vertices pull from frontier in-neighbors.
    Pull,
}

impl Direction {
    /// Stable name used in telemetry records ("push" / "pull").
    pub fn as_str(self) -> &'static str {
        match self {
            Direction::Push => "push",
            Direction::Pull => "pull",
        }
    }
}

/// Decision inputs and outcome for one executed BFS level.
///
/// Holds exactly the arguments [`decide_direction`] saw before the level
/// ran, so a recorded traversal is *replayable*: feeding the previous
/// level's direction and this record's inputs back through
/// [`decide_direction`] must reproduce `direction`.  The `--trace` CLI
/// path emits these as `bfs_level` events, and a test replays the
/// heuristic from the emitted telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelRecord {
    /// Depth of the frontier being expanded (source is depth 0).
    pub level: u32,
    /// Direction the heuristic chose for this level.
    pub direction: Direction,
    /// Vertices on the frontier before expansion (`n_f`).
    pub frontier_vertices: usize,
    /// Edges incident to the frontier before expansion (`m_f`).
    pub frontier_edges: usize,
    /// Edges incident to still-unexplored vertices (`m_u`).
    pub unexplored_edges: usize,
    /// Edges actually inspected while expanding this level.
    pub edges_inspected: usize,
}

/// Result of [`HybridBfs::run`]: levels plus per-level traversal stats.
#[derive(Debug, Clone)]
pub struct BfsRun {
    /// Level of each vertex (`UNREACHED` where not reachable).
    pub levels: Vec<u32>,
    /// Direction chosen for each executed level.
    pub directions: Vec<Direction>,
    /// Edge inspections performed across the whole traversal — the work
    /// metric the direction switch optimizes (push levels inspect every
    /// frontier edge; pull levels stop early at the first frontier
    /// parent).
    pub edges_inspected: usize,
    /// Per-level decision inputs and work (same length as `directions`).
    pub level_records: Vec<LevelRecord>,
}

/// Sequential textbook BFS levels from `source` (`UNREACHED` where not
/// reachable).
///
/// This is deliberately *not* routed through [`HybridBfs`]: a plain
/// `VecDeque` traversal with no direction heuristic, no atomics and no
/// telemetry, kept as the independent verification oracle the test
/// suites compare every other traversal against.
pub fn sequential_bfs_levels<G: GraphView>(graph: &G, source: VertexId) -> Vec<u32> {
    let n = graph.num_vertices();
    assert!((source as usize) < n, "source vertex out of range");
    let mut levels = vec![UNREACHED; n];
    levels[source as usize] = 0;
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let next = levels[u as usize] + 1;
        for v in graph.neighbors_iter(u) {
            if levels[v as usize] == UNREACHED {
                levels[v as usize] = next;
                queue.push_back(v);
            }
        }
    }
    levels
}

/// Reusable direction-optimizing BFS engine, generic over any
/// [`GraphView`] backend (heap CSR, reordered, memory-mapped,
/// compressed).  `G` defaults to [`CsrGraph`], so existing call sites
/// read unchanged.
///
/// Construction caches the degree table and, for directed graphs under a
/// pull-capable config, the transpose (in-neighbor CSR) — so callers
/// that run many searches over one graph (diameter sampling, betweenness
/// source loops) pay those costs once.  On undirected graphs the
/// symmetric adjacency serves both directions and no transpose is built.
pub struct HybridBfs<'g, G: GraphView = CsrGraph> {
    graph: &'g G,
    /// In-neighbor view for directed graphs; `None` when `graph` is its
    /// own transpose (undirected) or the config never pulls.  Always a
    /// heap CSR regardless of backend: it is derived data this engine
    /// owns, not a view of the caller's storage.
    transpose: Option<CsrGraph>,
    degrees: Vec<usize>,
    config: BfsConfig,
}

impl<'g, G: GraphView> HybridBfs<'g, G> {
    /// Engine with the default (hybrid) config.
    pub fn new(graph: &'g G) -> Self {
        Self::with_config(graph, BfsConfig::default())
    }

    /// Engine with an explicit config.
    pub fn with_config(graph: &'g G, config: BfsConfig) -> Self {
        let transpose = (graph.is_directed() && config.may_pull()).then(|| graph.transpose_csr());
        Self {
            graph,
            transpose,
            degrees: graph.degrees(),
            config,
        }
    }

    /// The engine's config.
    pub fn config(&self) -> &BfsConfig {
        &self.config
    }

    /// The graph the engine traverses.
    pub fn graph(&self) -> &'g G {
        self.graph
    }

    /// The cached transpose, when the config and directedness required
    /// one.  [`crate::msbfs::MsBfs`] pulls through this so batched
    /// traversals reuse the transpose this engine already built.
    pub fn cached_transpose(&self) -> Option<&CsrGraph> {
        self.transpose.as_ref()
    }

    /// The cached degree table (degrees paid once).
    pub fn degrees(&self) -> &[usize] {
        &self.degrees
    }

    /// BFS levels from `source`; identical output to
    /// [`sequential_bfs_levels`] for every config.
    pub fn levels(&self, source: VertexId) -> Vec<u32> {
        self.run(source).levels
    }

    /// BFS from `source` with per-level direction and work statistics.
    pub fn run(&self, source: VertexId) -> BfsRun {
        let n = self.graph.num_vertices();
        assert!((source as usize) < n, "source vertex out of range");
        let _bfs_span = if graphct_trace::enabled() {
            self.open_bfs_span(source, n)
        } else {
            graphct_trace::SpanGuard::disabled()
        };
        let levels = AtomicU32Array::filled(n, UNREACHED);
        levels.store(source as usize, 0);
        let mut frontier = Frontier::sparse(vec![source]);
        let mut unvisited = Vec::new();
        let mut driver = LevelDriver::new(
            &self.config,
            n,
            self.graph.num_arcs(),
            self.degrees[source as usize],
            &mut unvisited,
        );
        let mut directions = Vec::new();
        let mut level_records = Vec::new();
        let mut edges_inspected = 0usize;
        while !frontier.is_empty() {
            let frontier_vertices = frontier.len();
            let direction = driver.next_direction(frontier_vertices);
            let depth = driver.depth();
            let frontier_edges = driver.frontier_edges();
            let wave_start = graphct_trace::enabled().then(std::time::Instant::now);
            let (next, level_inspected) = match direction {
                Direction::Push => (
                    push_level(self.graph, &frontier.into_sparse(), &levels, depth + 1),
                    frontier_edges,
                ),
                Direction::Pull => {
                    let unvisited = driver.unvisited(|v| levels.load(v as usize) == UNREACHED);
                    // Pull along in-edges: the cached transpose when the
                    // engine built one, the (symmetric) graph otherwise.
                    match &self.transpose {
                        Some(t) => pull_level(t, &levels, depth, unvisited),
                        None => pull_level(self.graph, &levels, depth, unvisited),
                    }
                }
            };
            if let Some(t) = wave_start {
                crate::telemetry::BFS_WAVE_NS.record_duration(t.elapsed());
            }
            edges_inspected += level_inspected;
            let record = LevelRecord {
                level: depth,
                direction,
                frontier_vertices,
                frontier_edges,
                unexplored_edges: driver.unexplored_edges(),
                edges_inspected: level_inspected,
            };
            if graphct_trace::enabled() {
                emit_level_event(&record);
            }
            directions.push(direction);
            level_records.push(record);
            driver.finish_level(next.edge_weight(&self.degrees));
            frontier = next;
        }
        let run = BfsRun {
            levels: levels.into_vec(),
            directions,
            edges_inspected,
            level_records,
        };
        if graphct_trace::enabled() {
            self.report_run_telemetry(&run);
        }
        run
    }

    /// The traced-run span open, kept out of line so the untraced hot
    /// path carries none of the field-formatting code.
    #[cold]
    #[inline(never)]
    fn open_bfs_span(&self, source: VertexId, n: usize) -> graphct_trace::SpanGuard {
        graphct_mt::register_profiling_threads();
        graphct_trace::span!(
            "bfs",
            src = source,
            vertices = n,
            mode = format!("{:?}", self.config.frontier),
        )
    }

    /// End-of-run counters and the frontier-size histogram, called only
    /// from traced runs.
    #[cold]
    #[inline(never)]
    fn report_run_telemetry(&self, run: &BfsRun) {
        let pull_edges: usize = run
            .level_records
            .iter()
            .filter(|r| r.direction == Direction::Pull)
            .map(|r| r.edges_inspected)
            .sum();
        crate::telemetry::BFS_EDGES_SCANNED_PUSH.add((run.edges_inspected - pull_edges) as u64);
        crate::telemetry::BFS_EDGES_SCANNED_PULL.add(pull_edges as u64);
        let pulls = run
            .directions
            .iter()
            .filter(|&&d| d == Direction::Pull)
            .count();
        crate::telemetry::BFS_LEVELS_PUSH.add((run.directions.len() - pulls) as u64);
        crate::telemetry::BFS_LEVELS_PULL.add(pulls as u64);
        let visited = run.levels.iter().filter(|&&l| l != UNREACHED).count();
        crate::telemetry::BFS_VERTICES_VISITED.add(visited as u64);
        let frontier_sizes: Vec<usize> = run
            .level_records
            .iter()
            .map(|r| r.frontier_vertices)
            .collect();
        if !frontier_sizes.is_empty() {
            let (edges, counts) = graphct_mt::histogram::log_binned_counts(&frontier_sizes, 2.0);
            let edges: Vec<u64> = edges.iter().map(|&e| e as u64).collect();
            let counts: Vec<u64> = counts.iter().map(|&c| c as u64).collect();
            graphct_trace::histogram("bfs_frontier_size", &edges, &counts);
        }
    }
}

/// The per-level direction decision every direction-optimizing traversal
/// makes through the crate's level driver (see [`BfsConfig`] for the
/// criterion).
///
/// Public so recorded traversals are replayable offline: feeding a
/// [`LevelRecord`]'s inputs (and the previous level's direction) back
/// through this function must reproduce the recorded direction — the
/// property the telemetry replay test asserts from emitted `bfs_level`
/// events.
pub fn decide_direction(
    config: &BfsConfig,
    current: Direction,
    frontier_vertices: usize,
    frontier_edges: usize,
    unexplored_edges: usize,
    num_vertices: usize,
) -> Direction {
    match config.frontier {
        FrontierKind::Push => Direction::Push,
        FrontierKind::Pull => Direction::Pull,
        FrontierKind::Hybrid => match current {
            Direction::Push
                if unexplored_edges > 0
                    && frontier_edges as f64 > unexplored_edges as f64 / config.alpha =>
            {
                Direction::Pull
            }
            Direction::Pull if (frontier_vertices as f64) < num_vertices as f64 / config.beta => {
                Direction::Push
            }
            unchanged => unchanged,
        },
    }
}

/// Per-level telemetry record, kept out of line so the untraced hot
/// path carries none of the field-formatting code.
#[cold]
#[inline(never)]
fn emit_level_event(record: &LevelRecord) {
    graphct_trace::event!(
        "bfs_level",
        level = record.level,
        dir = record.direction.as_str(),
        frontier_vertices = record.frontier_vertices,
        frontier_edges = record.frontier_edges,
        unexplored_edges = record.unexplored_edges,
        edges_inspected = record.edges_inspected,
    );
}

/// Bottom-up step: every vertex in `unvisited` probes its in-neighbors
/// (`in_csr` is the transpose, or the graph itself when undirected) for
/// a parent on the `depth` frontier, stopping at the first hit.  Only
/// the probing task writes a given vertex's level, so a plain store
/// suffices (no claim contention, unlike push).  The caller guarantees
/// `unvisited` holds exactly the vertices with no level yet.
fn pull_level<G: GraphView>(
    in_csr: &G,
    levels: &AtomicU32Array,
    depth: u32,
    unvisited: &[VertexId],
) -> (Frontier, usize) {
    let n = in_csr.num_vertices();
    let next = AtomicBitmap::new(n);
    let (claimed, inspected) = unvisited
        .par_iter()
        .map(|&v| {
            let mut probes = 0usize;
            for u in in_csr.neighbors_iter(v) {
                probes += 1;
                if levels.load(u as usize) == depth {
                    levels.store(v as usize, depth + 1);
                    next.set(v as usize);
                    return (1usize, probes);
                }
            }
            (0, probes)
        })
        .reduce(|| (0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    (Frontier::dense(next, claimed), inspected)
}

/// Top-down step: frontier vertices claim unvisited out-neighbors via
/// compare-exchange on the level array (the atomic-claim idiom standing
/// in for the XMT's synchronized memory words).
fn push_level<G: GraphView>(
    graph: &G,
    frontier: &[VertexId],
    levels: &AtomicU32Array,
    next_depth: u32,
) -> Frontier {
    let next: Vec<VertexId> = frontier
        .par_iter()
        .flat_map_iter(|&u| graph.neighbors_iter(u))
        .filter(|&v| {
            levels
                .compare_exchange(v as usize, UNREACHED, next_depth)
                .is_ok()
        })
        .collect();
    Frontier::sparse(next)
}

/// BFS limited to `max_depth` levels — GraphCT's "marking a breadth-first
/// search from a given vertex of a given length" kernel (paper §IV-A).
/// Vertices further than `max_depth` stay `UNREACHED`.
pub fn bfs_levels_bounded<G: GraphView>(graph: &G, source: VertexId, max_depth: u32) -> Vec<u32> {
    let n = graph.num_vertices();
    assert!((source as usize) < n, "source vertex out of range");
    let levels = AtomicU32Array::filled(n, UNREACHED);
    levels.store(source as usize, 0);
    let mut frontier = vec![source];
    for depth in 1..=max_depth {
        if frontier.is_empty() {
            break;
        }
        frontier = push_level(graph, &frontier, &levels, depth).into_sparse();
    }
    levels.into_vec()
}

/// The eccentricity observed by a BFS: the maximum finite level.
/// Returns 0 for an isolated source.
pub fn max_level(levels: &[u32]) -> u32 {
    levels
        .par_iter()
        .copied()
        .filter(|&l| l != UNREACHED)
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphct_core::builder::build_undirected_simple;
    use graphct_core::EdgeList;

    fn graph(edges: &[(u32, u32)]) -> CsrGraph {
        build_undirected_simple(&EdgeList::from_pairs(edges.to_vec())).unwrap()
    }

    #[test]
    fn path_levels() {
        let g = graph(&[(0, 1), (1, 2), (2, 3)]);
        let engine = HybridBfs::new(&g);
        assert_eq!(engine.levels(0), vec![0, 1, 2, 3]);
        assert_eq!(engine.levels(2), vec![2, 1, 0, 1]);
    }

    #[test]
    fn disconnected_stays_unreached() {
        let g = graph(&[(0, 1), (2, 3)]);
        let l = HybridBfs::new(&g).levels(0);
        assert_eq!(l[0], 0);
        assert_eq!(l[1], 1);
        assert_eq!(l[2], UNREACHED);
        assert_eq!(l[3], UNREACHED);
    }

    #[test]
    fn hybrid_switches_directions_on_a_hub() {
        // A broadcast hub: level 1 holds nearly every vertex, so the
        // default thresholds must trigger at least one pull level (forced
        // directions are the level driver's own tests).
        let n = 4000u32;
        let edges: Vec<(u32, u32)> = (1..n).map(|v| (0, v)).collect();
        let g = graph(&edges);
        let engine = HybridBfs::new(&g);
        let run = engine.run(0);
        assert_eq!(run.levels, sequential_bfs_levels(&g, 0));
        assert!(
            run.directions.contains(&Direction::Pull),
            "expected a pull level, got {:?}",
            run.directions
        );
    }

    #[test]
    fn hybrid_inspects_fewer_edges_on_dense_frontiers() {
        // On the hub graph the single dense level dominates: pull stops
        // at the first frontier parent while push scans every edge twice
        // (the undirected hub has all arcs incident to the frontier).
        let n = 4000u32;
        let edges: Vec<(u32, u32)> = (1..n).map(|v| (0, v)).collect();
        let g = graph(&edges);
        let hybrid = HybridBfs::new(&g).run(0);
        let push = HybridBfs::with_config(&g, BfsConfig::push_only()).run(0);
        assert!(
            hybrid.edges_inspected < push.edges_inspected,
            "hybrid {} vs push {}",
            hybrid.edges_inspected,
            push.edges_inspected
        );
    }

    #[test]
    fn extreme_thresholds_force_each_direction() {
        let g = graph(&[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]);
        // Tiny alpha (huge edge threshold): pulling is never profitable.
        let cfg = BfsConfig::hybrid().with_alpha(1e-12);
        let run = HybridBfs::with_config(&g, cfg).run(0);
        assert!(run.directions.iter().all(|&d| d == Direction::Push));
        // Huge alpha + huge beta: switch to pull immediately and stay.
        let cfg = BfsConfig::hybrid().with_alpha(1e12).with_beta(1e12);
        let run = HybridBfs::with_config(&g, cfg).run(0);
        assert_eq!(run.levels, sequential_bfs_levels(&g, 0));
        assert!(run.directions.iter().all(|&d| d == Direction::Pull));
    }

    #[test]
    fn frontier_kind_parses() {
        for (text, kind) in [
            ("PUSH", FrontierKind::Push),
            ("pull", FrontierKind::Pull),
            ("Hybrid", FrontierKind::Hybrid),
        ] {
            assert_eq!(text.parse::<FrontierKind>().unwrap(), kind);
        }
        for retired in ["dfs", "queue", "bitmap"] {
            let err = retired.parse::<FrontierKind>().unwrap_err();
            assert!(err.contains("push|pull|hybrid"), "{err}");
        }
    }

    #[test]
    fn bounded_bfs_stops_at_depth() {
        let g = graph(&[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let l = bfs_levels_bounded(&g, 0, 2);
        assert_eq!(l, vec![0, 1, 2, UNREACHED, UNREACHED]);
        let l = bfs_levels_bounded(&g, 0, 0);
        assert_eq!(l, vec![0, UNREACHED, UNREACHED, UNREACHED, UNREACHED]);
    }

    #[test]
    fn max_level_of_path() {
        let g = graph(&[(0, 1), (1, 2)]);
        assert_eq!(max_level(&sequential_bfs_levels(&g, 0)), 2);
        let isolated = graph(&[(0, 1)]);
        // Vertex 1 exists; bfs from 0 reaches level 1.
        assert_eq!(max_level(&sequential_bfs_levels(&isolated, 0)), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_source_panics() {
        let g = graph(&[(0, 1)]);
        HybridBfs::new(&g).levels(9);
    }
}
