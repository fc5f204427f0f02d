//! The direction-optimizing level driver.
//!
//! Every path kernel here — [`HybridBfs`](crate::bfs::HybridBfs),
//! [`MsBfs`](crate::msbfs::MsBfs), and the forward passes of Brandes
//! betweenness and k-betweenness — is a level-synchronous BFS whose
//! levels expand either top-down (push) or bottom-up (pull).
//! [`LevelDriver`] owns everything *around* a level: the per-level
//! [`decide_direction`] call, the Beamer `m_f`/`m_u` edge accounting,
//! the depth counter, and the lazily built unvisited list pull levels
//! scan.  Each kernel keeps only its own edge loop, because those differ
//! (claim by compare-exchange, sigma counting without early exit, `u64`
//! lane words).

use crate::bfs::{decide_direction, BfsConfig, Direction};
use graphct_core::VertexId;

/// Per-traversal direction state, driven one level at a time:
/// [`next_direction`](Self::next_direction), the caller's edge loop
/// (asking [`unvisited`](Self::unvisited) for the pull candidates), then
/// [`finish_level`](Self::finish_level).
pub(crate) struct LevelDriver<'a> {
    config: BfsConfig,
    num_vertices: usize,
    direction: Direction,
    depth: u32,
    /// Edges incident to the frontier about to expand (`m_f`).
    frontier_edges: usize,
    /// Edges incident to still-unexplored vertices (`m_u`).
    unexplored_edges: usize,
    /// Caller scratch, so per-worker workspaces keep their allocation.
    unvisited: &'a mut Vec<VertexId>,
    unvisited_built: bool,
}

impl<'a> LevelDriver<'a> {
    /// Driver for a traversal over `num_vertices` vertices and `num_arcs`
    /// arcs whose initial frontier touches `frontier_edges` of them.
    /// `unvisited` is cleared; its capacity is reused.
    #[inline]
    pub(crate) fn new(
        config: &BfsConfig,
        num_vertices: usize,
        num_arcs: usize,
        frontier_edges: usize,
        unvisited: &'a mut Vec<VertexId>,
    ) -> Self {
        unvisited.clear();
        Self {
            config: *config,
            num_vertices,
            direction: Direction::Push,
            depth: 0,
            frontier_edges,
            unexplored_edges: num_arcs.saturating_sub(frontier_edges),
            unvisited,
            unvisited_built: false,
        }
    }

    /// Choose the direction for the level expanding a frontier of
    /// `frontier_vertices` vertices.
    #[inline]
    pub(crate) fn next_direction(&mut self, frontier_vertices: usize) -> Direction {
        self.direction = decide_direction(
            &self.config,
            self.direction,
            frontier_vertices,
            self.frontier_edges,
            self.unexplored_edges,
            self.num_vertices,
        );
        self.direction
    }

    /// Depth of the frontier being expanded (the sources are depth 0).
    #[inline]
    pub(crate) fn depth(&self) -> u32 {
        self.depth
    }

    /// `m_f` for the current level.
    #[inline]
    pub(crate) fn frontier_edges(&self) -> usize {
        self.frontier_edges
    }

    /// `m_u` for the current level.
    #[inline]
    pub(crate) fn unexplored_edges(&self) -> usize {
        self.unexplored_edges
    }

    /// The vertices a pull level probes: built from `is_unvisited` at the
    /// first pull, then shrunk with it before each later pull, which also
    /// drops vertices claimed by intervening push levels.
    #[inline]
    pub(crate) fn unvisited(&mut self, is_unvisited: impl Fn(VertexId) -> bool) -> &[VertexId] {
        if self.unvisited_built {
            self.unvisited.retain(|&v| is_unvisited(v));
        } else {
            let n = self.num_vertices as VertexId;
            self.unvisited.extend((0..n).filter(|&v| is_unvisited(v)));
            self.unvisited_built = true;
        }
        self.unvisited
    }

    /// Close the level: the next frontier touches `next_frontier_edges`.
    #[inline]
    pub(crate) fn finish_level(&mut self, next_frontier_edges: usize) {
        self.frontier_edges = next_frontier_edges;
        self.unexplored_edges = self.unexplored_edges.saturating_sub(next_frontier_edges);
        self.depth += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::sequential_bfs_levels;
    use graphct_core::builder::build_undirected_simple;
    use graphct_core::{CsrGraph, EdgeList};
    use std::cell::Cell;

    /// Path 0–1–2 into hub 2, whose 1 998 leaves include 3, which leads
    /// into the tail 2001–2002–2003; plus an unreachable 200-edge path
    /// that keeps `m_u` large while the tail is walked.
    fn hub_with_tail() -> CsrGraph {
        let mut edges = vec![(0, 1), (1, 2), (3, 2001), (2001, 2002), (2002, 2003)];
        edges.extend((3..2001).map(|v| (2, v)));
        edges.extend((2004..2204).map(|v| (v, v + 1)));
        build_undirected_simple(&EdgeList::from_pairs(edges)).unwrap()
    }

    /// One level as the driver saw it: direction, and on pull levels how
    /// many vertices the unvisited predicate examined and kept.
    type LevelLog = (Direction, usize, usize);

    /// A sequential BFS from 0 on the driver; returns per-level logs and
    /// the levels.
    fn drive(g: &CsrGraph, config: BfsConfig) -> (Vec<LevelLog>, Vec<u32>) {
        let mut dist = vec![u32::MAX; g.num_vertices()];
        dist[0] = 0;
        let mut frontier = vec![0];
        let mut scratch = vec![7; 3]; // stale contents the driver must clear
        let mut driver =
            LevelDriver::new(&config, dist.len(), g.num_arcs(), g.degree(0), &mut scratch);
        let mut log = Vec::new();
        while !frontier.is_empty() {
            let direction = driver.next_direction(frontier.len());
            let depth = driver.depth();
            let mut next = Vec::new();
            let (mut examined, mut kept) = (0, 0);
            match direction {
                Direction::Push => {
                    for &u in &frontier {
                        for &v in g.neighbors(u) {
                            if dist[v as usize] == u32::MAX {
                                dist[v as usize] = depth + 1;
                                next.push(v);
                            }
                        }
                    }
                }
                Direction::Pull => {
                    let calls = Cell::new(0);
                    let unvisited = driver.unvisited(|v| {
                        calls.set(calls.get() + 1);
                        dist[v as usize] == u32::MAX
                    });
                    (examined, kept) = (calls.get(), unvisited.len());
                    for &v in unvisited {
                        let unreached = dist[v as usize] == u32::MAX;
                        if unreached && g.neighbors(v).iter().any(|&u| dist[u as usize] == depth) {
                            dist[v as usize] = depth + 1;
                            next.push(v);
                        }
                    }
                }
            }
            driver.finish_level(next.iter().map(|&v| g.degree(v)).sum());
            log.push((direction, examined, kept));
            frontier = next;
        }
        (log, dist)
    }

    #[test]
    fn forced_directions_never_switch() {
        let g = hub_with_tail();
        for (config, only) in [
            (BfsConfig::push_only(), Direction::Push),
            (BfsConfig::pull_only(), Direction::Pull),
        ] {
            let (log, dist) = drive(&g, config);
            assert!(log.iter().all(|l| l.0 == only), "{log:?}");
            assert_eq!(dist, sequential_bfs_levels(&g, 0));
        }
    }

    #[test]
    fn hub_switches_push_pull_push_under_default_thresholds() {
        use Direction::{Pull, Push};
        let g = hub_with_tail();
        let (log, dist) = drive(&g, BfsConfig::hybrid());
        let directions: Vec<Direction> = log.iter().map(|l| l.0).collect();
        assert_eq!(directions, [Push, Push, Pull, Pull, Push, Push, Push]);
        assert_eq!(dist, sequential_bfs_levels(&g, 0));
    }

    #[test]
    fn unvisited_list_is_built_once_then_only_shrinks() {
        let g = hub_with_tail();
        let (log, _) = drive(&g, BfsConfig::pull_only());
        // The first pull scans every vertex; each later one re-examines
        // exactly the previous list and keeps a subset of it.
        assert_eq!(log[0].1, g.num_vertices());
        for pair in log.windows(2) {
            assert_eq!(pair[1].1, pair[0].2);
            assert!(pair[1].2 <= pair[0].2);
        }
    }

    #[test]
    fn unexplored_edges_saturate_at_zero() {
        let mut scratch = Vec::new();
        let config = BfsConfig::hybrid();
        let mut driver = LevelDriver::new(&config, 8, 10, 4, &mut scratch);
        assert_eq!(driver.unexplored_edges(), 6);
        driver.finish_level(9);
        assert_eq!((driver.frontier_edges(), driver.unexplored_edges()), (9, 0));
        driver.finish_level(3);
        assert_eq!(driver.unexplored_edges(), 0);
        // With nothing left unexplored, hybrid keeps pushing.
        assert_eq!(driver.next_direction(8), Direction::Push);
        let mut driver = LevelDriver::new(&config, 8, 2, 5, &mut scratch);
        assert_eq!(driver.unexplored_edges(), 0);
        assert_eq!(driver.next_direction(1), Direction::Push);
    }
}
