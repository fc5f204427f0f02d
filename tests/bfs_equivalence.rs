//! Equivalence suite for the direction-optimizing BFS: every frontier
//! kind and threshold setting must reproduce the sequential oracle's
//! level array on every graph family the toolkit generates — R-MAT,
//! Erdős–Rényi, broadcast forests (disconnected by construction), and
//! adversarial hand-built shapes.

use graphct::prelude::*;
use graphct_gen::broadcast::{broadcast_forest, BroadcastConfig};
use graphct_gen::{classic, gnm, rmat_edges, RmatConfig};

/// The full matrix of configurations under test: each forced kind at
/// defaults, plus the hybrid at thresholds that exercise late, early,
/// and degenerate switching.
fn configs() -> Vec<BfsConfig> {
    vec![
        BfsConfig::push_only(),
        BfsConfig::pull_only(),
        BfsConfig::hybrid(),
        BfsConfig::hybrid().with_alpha(1.0).with_beta(1.0),
        BfsConfig::hybrid().with_alpha(100.0).with_beta(2.0),
        BfsConfig::hybrid().with_alpha(0.001).with_beta(1000.0),
        BfsConfig::hybrid().with_alpha(1e9).with_beta(1e9),
    ]
}

/// Sources spread across the vertex range (plus both endpoints).
fn sources(n: usize) -> Vec<u32> {
    if n == 0 {
        return Vec::new();
    }
    let mut s = vec![
        0,
        (n - 1) as u32,
        (n / 2) as u32,
        (n / 3) as u32,
        (n / 7) as u32,
    ];
    s.sort_unstable();
    s.dedup();
    s
}

fn assert_all_configs_match(g: &CsrGraph, label: &str) {
    // The engine is rebuilt per config (transpose setup differs), but
    // shared across sources to exercise the amortized path.
    for config in configs() {
        let engine = HybridBfs::with_config(g, config);
        for src in sources(g.num_vertices()) {
            let expected = sequential_bfs_levels(g, src);
            let got = engine.levels(src);
            assert_eq!(
                got, expected,
                "{label}: config {config:?} diverged from the sequential oracle at source {src}"
            );
        }
    }
}

#[test]
fn rmat_low_diameter() {
    let g = build_undirected_simple(&rmat_edges(&RmatConfig::paper(9, 8), 7)).unwrap();
    assert_all_configs_match(&g, "rmat scale 9");
}

#[test]
fn erdos_renyi_sparse_and_dense() {
    for (n, m, label) in [(400, 600, "er sparse"), (150, 4_000, "er dense")] {
        let g = build_undirected_simple(&gnm(n, m, 3)).unwrap();
        assert_all_configs_match(&g, label);
    }
}

#[test]
fn broadcast_forest_is_disconnected() {
    let cfg = BroadcastConfig {
        hubs: 5,
        fanout: 60,
        decay: 0.1,
        max_depth: 3,
    };
    let (edges, n) = broadcast_forest(&cfg, 11);
    let g = GraphBuilder::undirected()
        .num_vertices(n)
        .build(&edges)
        .unwrap();
    // Sanity: multiple components, so most vertices stay unreached and
    // the pull direction must not claim vertices from other trees.
    assert!(ComponentSummary::compute(&g).num_components() >= cfg.hubs);
    assert_all_configs_match(&g, "broadcast forest");
}

#[test]
fn hub_star_forces_a_dense_level() {
    let g = build_undirected_simple(&classic::star(2_000)).unwrap();
    assert_all_configs_match(&g, "star 2000");
    // The hybrid must actually take the pull path here: from the hub,
    // level 1 holds every other vertex.
    let engine = HybridBfs::with_config(&g, BfsConfig::hybrid());
    let run = engine.run(0);
    assert!(
        run.directions
            .contains(&graphct::kernels::bfs::Direction::Pull),
        "expected a pull level on the star, got {:?}",
        run.directions
    );
}

#[test]
fn high_diameter_path_and_cycle() {
    for (edges, label) in [
        (classic::path(3_000), "path 3000"),
        (classic::cycle(3_000), "cycle 3000"),
    ] {
        let g = build_undirected_simple(&edges).unwrap();
        assert_all_configs_match(&g, label);
    }
}

#[test]
fn directed_graphs_pull_through_the_transpose() {
    // Directed R-MAT-ish edges: pull must consult in-neighbors, not
    // out-neighbors, so an incorrect transpose shows up immediately.
    let el = rmat_edges(&RmatConfig::paper(8, 6), 13);
    let g = build_directed_simple(&el).unwrap();
    assert_all_configs_match(&g, "directed rmat scale 8");
}

#[test]
fn isolated_vertices_and_empty_graph() {
    let g = GraphBuilder::undirected()
        .num_vertices(50)
        .build(&EdgeList::from_pairs(vec![(0, 1), (1, 2), (40, 41)]))
        .unwrap();
    assert_all_configs_match(&g, "mostly isolated");
    for config in configs() {
        let single = GraphBuilder::undirected()
            .num_vertices(1)
            .build(&EdgeList::new())
            .unwrap();
        assert_eq!(HybridBfs::with_config(&single, config).levels(0), vec![0]);
    }
}
