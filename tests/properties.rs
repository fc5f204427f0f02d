//! Property-based tests over the core data structures and kernels.
//!
//! Random edge lists drive the builder, I/O, subgraph machinery, and
//! the kernels; the properties are the structural invariants each
//! component must preserve for *any* input.

use graphct::prelude::*;
use proptest::prelude::*;

/// Strategy: a random edge list over up to `max_n` vertices.
fn edge_lists(max_n: u32, max_m: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0..max_n, 0..max_n), 0..max_m)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn builder_always_produces_sorted_symmetric_simple_graphs(
        edges in edge_lists(60, 200)
    ) {
        let g = build_undirected_simple(&EdgeList::from_pairs(edges)).unwrap();
        prop_assert!(g.is_sorted());
        prop_assert!(g.is_symmetric());
        prop_assert_eq!(g.count_self_loops(), 0);
        prop_assert_eq!(g.num_arcs() % 2, 0);
        // No duplicate neighbors.
        for v in 0..g.num_vertices() as u32 {
            prop_assert!(g.neighbors(v).windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn binary_io_roundtrips_any_graph(edges in edge_lists(40, 120), directed in any::<bool>()) {
        let el = EdgeList::from_pairs(edges);
        let g = if directed {
            build_directed_simple(&el).unwrap()
        } else {
            build_undirected_simple(&el).unwrap()
        };
        let mut buf = Vec::new();
        graphct::core::io::binary::write(&g, &mut buf).unwrap();
        let back = graphct::core::io::binary::read(&mut buf.as_slice()).unwrap();
        prop_assert_eq!(g, back);
    }

    #[test]
    fn dimacs_io_roundtrips_edges(edges in edge_lists(30, 80)) {
        let el = EdgeList::from_pairs(edges);
        let n = el.min_num_vertices().max(1);
        let mut text = format!("p sp {n} {}\n", el.len());
        for &(s, t) in el.as_slice() {
            text.push_str(&format!("a {} {} 1\n", s + 1, t + 1));
        }
        let parsed = graphct::core::io::dimacs::parse_str(&text).unwrap();
        prop_assert_eq!(parsed.edges, el);
    }

    #[test]
    fn components_agree_with_sequential_oracle(edges in edge_lists(80, 150)) {
        let g = build_undirected_simple(&EdgeList::from_pairs(edges)).unwrap();
        let par = connected_components(&g);
        let seq = graphct_kernels::components::sequential_components(&g);
        prop_assert_eq!(par, seq);
    }

    #[test]
    fn parallel_bfs_matches_sequential(edges in edge_lists(70, 150), src in 0u32..70) {
        let g = GraphBuilder::undirected()
            .num_vertices(70)
            .build(&EdgeList::from_pairs(edges))
            .unwrap();
        let seq = sequential_bfs_levels(&g, src);
        for kind in [FrontierKind::Push, FrontierKind::Pull, FrontierKind::Hybrid] {
            let levels = HybridBfs::with_config(&g, BfsConfig::from_kind(kind)).levels(src);
            prop_assert_eq!(&levels, &seq, "kind {:?}", kind);
        }
    }

    #[test]
    fn hybrid_bfs_matches_sequential_at_any_thresholds(
        edges in edge_lists(60, 140),
        src in 0u32..60,
        directed in any::<bool>(),
        alpha in 0.01f64..100.0,
        beta in 0.01f64..100.0,
    ) {
        let el = EdgeList::from_pairs(edges);
        let g = if directed {
            GraphBuilder::directed().num_vertices(60).build(&el).unwrap()
        } else {
            GraphBuilder::undirected().num_vertices(60).build(&el).unwrap()
        };
        let seq = sequential_bfs_levels(&g, src);
        let config = BfsConfig::hybrid().with_alpha(alpha).with_beta(beta);
        prop_assert_eq!(&HybridBfs::with_config(&g, config).levels(src), &seq);
    }

    #[test]
    fn betweenness_scores_are_finite_nonnegative_and_bounded(
        edges in edge_lists(25, 60)
    ) {
        let g = build_undirected_simple(&EdgeList::from_pairs(edges)).unwrap();
        let n = g.num_vertices() as f64;
        let bc = betweenness_centrality(&g, &BetweennessConfig::exact()).unwrap();
        for &s in &bc.scores {
            prop_assert!(s.is_finite());
            prop_assert!(s >= -1e-9);
            // Upper bound: a vertex lies on at most all ordered pairs.
            prop_assert!(s <= n * n + 1e-9);
        }
        // Leaves (degree <= 1) have zero betweenness.
        for v in 0..g.num_vertices() as u32 {
            if g.degree(v) <= 1 {
                prop_assert!(bc.scores[v as usize].abs() < 1e-9);
            }
        }
    }

    #[test]
    fn kbc_k0_equals_brandes(edges in edge_lists(20, 45)) {
        let g = build_undirected_simple(&EdgeList::from_pairs(edges)).unwrap();
        let bc = betweenness_centrality(&g, &BetweennessConfig::exact())
            .unwrap()
            .scores;
        let kbc = k_betweenness_centrality(&g, &KBetweennessConfig::exact(0))
            .unwrap()
            .scores;
        for (a, b) in bc.iter().zip(&kbc) {
            prop_assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn kbc_scores_monotone_in_k_on_counts(edges in edge_lists(16, 36)) {
        // k-BC is not numerically monotone in general (denominators also
        // grow), but every score stays finite and non-negative and the
        // kernel never crashes for k = 0, 1, 2.
        let g = build_undirected_simple(&EdgeList::from_pairs(edges)).unwrap();
        for k in 0..=2 {
            let r = k_betweenness_centrality(&g, &KBetweennessConfig::exact(k)).unwrap();
            for &s in &r.scores {
                prop_assert!(s.is_finite() && s >= -1e-9, "k={k} score {s}");
            }
        }
    }

    #[test]
    fn subgraph_preserves_adjacency(edges in edge_lists(40, 100), keep_bits in prop::collection::vec(any::<bool>(), 40)) {
        let g = GraphBuilder::undirected()
            .num_vertices(40)
            .build(&EdgeList::from_pairs(edges))
            .unwrap();
        let sub = graphct::core::subgraph::induced_subgraph(&g, &keep_bits).unwrap();
        // Every subgraph edge maps to a parent edge between kept vertices.
        for (u, v) in sub.graph.iter_arcs() {
            let pu = sub.orig_of[u as usize];
            let pv = sub.orig_of[v as usize];
            prop_assert!(g.has_edge(pu, pv));
            prop_assert!(keep_bits[pu as usize] && keep_bits[pv as usize]);
        }
        // Every parent edge between kept vertices survives.
        for (pu, pv) in g.iter_arcs() {
            if keep_bits[pu as usize] && keep_bits[pv as usize] {
                let u = sub.orig_of.binary_search(&pu).unwrap() as u32;
                let v = sub.orig_of.binary_search(&pv).unwrap() as u32;
                prop_assert!(sub.graph.has_edge(u, v));
            }
        }
    }

    #[test]
    fn core_numbers_match_peeling_definition(edges in edge_lists(50, 140)) {
        let g = build_undirected_simple(&EdgeList::from_pairs(edges)).unwrap();
        let cores = core_numbers(&g).unwrap();
        for k in 0..=4usize {
            let sub = kcore_subgraph(&g, k).unwrap();
            let mut expected: Vec<u32> = (0..g.num_vertices() as u32)
                .filter(|&v| cores[v as usize] as usize >= k)
                .collect();
            expected.sort_unstable();
            prop_assert_eq!(&sub.orig_of, &expected, "k={}", k);
        }
    }

    #[test]
    fn tweet_parser_total_and_bounded(text in "\\PC{0,200}") {
        // Never panics, never returns empty handles, all handles valid.
        for m in graphct_twitter::parse::mentions(&text) {
            prop_assert!(!m.is_empty() && m.len() <= 15);
            prop_assert!(m.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'));
        }
        for h in graphct_twitter::parse::hashtags(&text) {
            prop_assert!(!h.is_empty());
        }
        let _ = graphct_twitter::parse::retweet_source(&text);
    }

    #[test]
    fn top_k_metrics_are_consistent(scores_a in prop::collection::vec(0.0f64..100.0, 10..50)) {
        // Comparing a ranking against itself is perfect agreement.
        let acc = top_k_overlap(&scores_a, &scores_a, 0.2);
        prop_assert!((acc - 1.0).abs() < 1e-12);
        let tau = kendall_tau(&scores_a, &scores_a);
        prop_assert!(tau >= 0.0);
    }

    #[test]
    fn permutation_apply_then_invert_is_identity(order in prop::collection::vec(any::<u8>(), 1..64)) {
        // Turn arbitrary bytes into a permutation by arg-sorting them.
        let mut idx: Vec<u32> = (0..order.len() as u32).collect();
        idx.sort_unstable_by_key(|&i| (order[i as usize], i));
        let perm = Permutation::from_order(&idx).unwrap();
        let inv = perm.inverse();
        for v in 0..perm.len() as u32 {
            prop_assert_eq!(inv.apply(perm.apply(v)), v);
            prop_assert_eq!(perm.apply(inv.apply(v)), v);
        }
        prop_assert!(perm.compose(&inv).is_identity());
        prop_assert!(inv.compose(&perm).is_identity());
    }

    #[test]
    fn permutation_compose_is_associative(
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
        seed_c in any::<u64>(),
        n in 1usize..48,
    ) {
        // Three independent shuffles of the same vertex set: composition
        // must associate, and permute must follow composition.
        let g = CsrGraph::empty(n, false);
        let a = graphct::core::reorder::by_shuffle(&g, seed_a);
        let b = graphct::core::reorder::by_shuffle(&g, seed_b);
        let c = graphct::core::reorder::by_shuffle(&g, seed_c);
        let left = a.compose(&b).compose(&c);
        let right = a.compose(&b.compose(&c));
        prop_assert_eq!(left.as_slice(), right.as_slice());
        // permute through the composite == permute twice.
        let values: Vec<u32> = (0..n as u32).map(|v| v.wrapping_mul(2654435761)).collect();
        let ab = a.compose(&b);
        prop_assert_eq!(ab.permute(&values), b.permute(&a.permute(&values)));
        prop_assert_eq!(ab.unpermute(&ab.permute(&values)), values);
    }

    #[test]
    fn reordered_graph_preserves_adjacency(
        edges in edge_lists(50, 120),
        seed in any::<u64>(),
    ) {
        let g = build_undirected_simple(&EdgeList::from_pairs(edges)).unwrap();
        let perm = graphct::core::reorder::by_shuffle(&g, seed);
        let rg = g.reordered(&perm);
        prop_assert_eq!(rg.num_vertices(), g.num_vertices());
        prop_assert_eq!(rg.num_arcs(), g.num_arcs());
        prop_assert!(rg.is_sorted());
        for v in 0..g.num_vertices() as u32 {
            let mut expected: Vec<u32> =
                g.neighbors(v).iter().map(|&u| perm.apply(u)).collect();
            expected.sort_unstable();
            prop_assert_eq!(rg.neighbors(perm.apply(v)), &expected[..]);
        }
    }
}
