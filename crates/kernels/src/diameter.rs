//! Graph diameter estimation.
//!
//! "After loading the graph into memory and before running any kernel,
//! the diameter of the graph is estimated by performing a breadth-first
//! search from 256 randomly selected source vertices. The diameter is
//! estimated by four times the longest path distance found in those
//! searches." (paper §IV-A)
//!
//! GraphCT uses the estimate to size traversal queues — an overestimate
//! wastes a little memory, an underestimate would make kernels fail — so
//! the 4× safety multiplier errs upward.  Users "may specify an alternate
//! multiplier or number of samples".

use crate::bfs::{max_level, BfsConfig, HybridBfs};
use crate::msbfs::MsBfs;
use graphct_core::{CsrGraph, VertexId};
use graphct_mt::rng::task_rng;
use rand::seq::SliceRandom;
use rayon::prelude::*;

/// Result of the sampled diameter estimation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiameterEstimate {
    /// Longest shortest-path distance observed from any sampled source.
    pub max_distance_found: u32,
    /// `max_distance_found × multiplier` — the queue-sizing estimate.
    pub estimate: u32,
    /// Number of BFS sources actually sampled.
    pub samples: usize,
}

/// Default source-sample count (paper §IV-A).
pub const DEFAULT_SAMPLES: usize = 256;
/// Default safety multiplier (paper §IV-A).
pub const DEFAULT_MULTIPLIER: u32 = 4;

/// Estimate the diameter from `samples` random BFS roots.
///
/// Deterministic in `seed`. Sampling is without replacement; when
/// `samples >= n` every vertex is swept and `max_distance_found` is the
/// true eccentricity maximum, i.e. the exact diameter of the graph's
/// largest-eccentricity component.
///
/// # Examples
///
/// ```
/// use graphct_core::{builder::build_undirected_simple, EdgeList};
/// use graphct_kernels::diameter::estimate_diameter;
///
/// let g = build_undirected_simple(&EdgeList::from_pairs(vec![(0, 1), (1, 2)])).unwrap();
/// let d = estimate_diameter(&g, 256, 4, 0); // full sweep: exact
/// assert_eq!(d.max_distance_found, 2);
/// assert_eq!(d.estimate, 8); // 4x queue-sizing safety factor
/// ```
pub fn estimate_diameter(
    graph: &CsrGraph,
    samples: usize,
    multiplier: u32,
    seed: u64,
) -> DiameterEstimate {
    let batch = crate::msbfs::DEFAULT_BATCH;
    estimate_diameter_batched(
        graph,
        samples,
        multiplier,
        seed,
        &BfsConfig::default(),
        batch,
    )
}

/// [`estimate_diameter`] with explicit BFS direction-optimization tuning
/// and MS-BFS batch width (the CLI's `--frontier`/`--alpha`/`--beta` and
/// `--batch`).  The [`HybridBfs`] engine is built once and shared by all
/// sampled sources, so transpose/degree setup is amortized.
///
/// `batch <= 1` runs the classic one-task-per-source path; larger widths
/// (clamped to [`MAX_BATCH`](crate::msbfs::MAX_BATCH)) run the
/// bit-parallel [`MsBfs`] engine, sharing each adjacency scan across up
/// to that many sources.  Per-source levels are bit-identical either
/// way, so the estimate is too — only the adjacency-scan count drops.
pub fn estimate_diameter_batched(
    graph: &CsrGraph,
    samples: usize,
    multiplier: u32,
    seed: u64,
    bfs: &BfsConfig,
    batch: usize,
) -> DiameterEstimate {
    let n = graph.num_vertices();
    if n == 0 || samples == 0 {
        return DiameterEstimate {
            max_distance_found: 0,
            estimate: 0,
            samples: 0,
        };
    }
    let sources: Vec<VertexId> = if samples >= n {
        (0..n as VertexId).collect()
    } else {
        let mut rng = task_rng(seed, 0xd1a);
        let mut all: Vec<VertexId> = (0..n as VertexId).collect();
        all.shuffle(&mut rng);
        all.truncate(samples);
        all
    };
    let engine = HybridBfs::with_config(graph, *bfs);
    let max_distance_found = if batch <= 1 {
        sources
            .par_iter()
            .map(|&s| max_level(&engine.levels(s)))
            .max()
            .unwrap_or(0)
    } else {
        MsBfs::new(&engine)
            .eccentricities(&sources, batch)
            .into_iter()
            .max()
            .unwrap_or(0)
    };
    DiameterEstimate {
        max_distance_found,
        estimate: max_distance_found.saturating_mul(multiplier),
        samples: sources.len(),
    }
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
    fn full_sweep_finds_exact_diameter() {
        let g = graph(&[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let d = estimate_diameter(&g, 100, 1, 0);
        assert_eq!(d.max_distance_found, 4);
        assert_eq!(d.estimate, 4);
        assert_eq!(d.samples, 5);
    }

    #[test]
    fn multiplier_applies() {
        let g = graph(&[(0, 1), (1, 2)]);
        let d = estimate_diameter(&g, DEFAULT_SAMPLES, DEFAULT_MULTIPLIER, 0);
        assert_eq!(d.max_distance_found, 2);
        assert_eq!(d.estimate, 8);
    }

    #[test]
    fn sampled_estimate_bounded_by_true_diameter() {
        // Path of 200 vertices: diameter 199. Any sample's max distance
        // is between 100 (from the midpoint) and 199.
        let edges: Vec<(u32, u32)> = (0..199u32).map(|i| (i, i + 1)).collect();
        let g = graph(&edges);
        let d = estimate_diameter(&g, 5, 4, 123);
        assert_eq!(d.samples, 5);
        assert!(d.max_distance_found >= 100);
        assert!(d.max_distance_found <= 199);
        assert_eq!(d.estimate, d.max_distance_found * 4);
    }

    #[test]
    fn deterministic_in_seed() {
        let edges: Vec<(u32, u32)> = (0..99u32).map(|i| (i, i + 1)).collect();
        let g = graph(&edges);
        let a = estimate_diameter(&g, 3, 4, 7);
        let b = estimate_diameter(&g, 3, 4, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_and_zero_samples() {
        let g = CsrGraph::empty(0, false);
        let d = estimate_diameter(&g, 10, 4, 0);
        assert_eq!(d.estimate, 0);
        let g = graph(&[(0, 1)]);
        let d = estimate_diameter(&g, 0, 4, 0);
        assert_eq!(d.samples, 0);
    }

    #[test]
    fn all_bfs_configs_agree() {
        let mut edges: Vec<(u32, u32)> = (0..49u32).map(|i| (i, i + 1)).collect();
        edges.extend((50..80u32).map(|v| (0, v))); // hub fan-out off one end
        let g = graph(&edges);
        let baseline = estimate_diameter(&g, 16, 4, 9);
        for cfg in [
            BfsConfig::push_only(),
            BfsConfig::pull_only(),
            BfsConfig::hybrid(),
        ] {
            assert_eq!(estimate_diameter_batched(&g, 16, 4, 9, &cfg, 64), baseline);
        }
    }

    #[test]
    fn batched_agrees_with_per_source_path() {
        let mut edges: Vec<(u32, u32)> = (0..199u32).map(|i| (i, i + 1)).collect();
        edges.extend((200..260u32).map(|v| (0, v)));
        let g = graph(&edges);
        let baseline = estimate_diameter_batched(&g, 70, 4, 3, &BfsConfig::default(), 1);
        for batch in [2, 8, 64, 999] {
            let d = estimate_diameter_batched(&g, 70, 4, 3, &BfsConfig::default(), batch);
            assert_eq!(d, baseline, "batch {batch}");
        }
        // The default entry point routes through MS-BFS and must agree too.
        assert_eq!(estimate_diameter(&g, 70, 4, 3), baseline);
    }

    #[test]
    fn disconnected_graph_reports_largest_reach() {
        let g = graph(&[(0, 1), (1, 2), (5, 6)]);
        let d = estimate_diameter(&g, 100, 1, 0);
        assert_eq!(d.max_distance_found, 2);
    }
}
