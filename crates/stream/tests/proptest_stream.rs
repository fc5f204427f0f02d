//! Property tests: the streaming structures must agree with from-scratch
//! static computation after any sequence of updates.

use graphct_stream::{EdgeUpdate, SnapshotCell, StreamingGraph};
use proptest::prelude::*;

/// A random update sequence over `n` vertices: mostly inserts, some
/// deletes, arbitrary interleaving.
fn update_seq(n: u32, len: usize) -> impl Strategy<Value = Vec<EdgeUpdate>> {
    prop::collection::vec(
        (0..n, 0..n, 0u8..4).prop_filter_map("loops excluded", |(u, v, kind)| {
            (u != v).then_some({
                if kind == 0 {
                    EdgeUpdate::Delete(u, v)
                } else {
                    EdgeUpdate::Insert(u, v)
                }
            })
        }),
        0..len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn graph_state_equals_replayed_set(updates in update_seq(40, 300)) {
        let mut g = StreamingGraph::new(40);
        let mut oracle: std::collections::HashSet<(u32, u32)> = Default::default();
        for &u in &updates {
            match u {
                EdgeUpdate::Insert(a, b) => {
                    g.insert_edge(a, b).unwrap();
                    oracle.insert((a.min(b), a.max(b)));
                }
                EdgeUpdate::Delete(a, b) => {
                    g.delete_edge(a, b).unwrap();
                    oracle.remove(&(a.min(b), a.max(b)));
                }
            }
        }
        prop_assert_eq!(g.num_edges(), oracle.len());
        for &(a, b) in &oracle {
            prop_assert!(g.has_edge(a, b) && g.has_edge(b, a));
        }
        // Snapshot is symmetric + sorted by construction.
        let snap = g.snapshot();
        prop_assert!(snap.is_sorted());
        prop_assert!(snap.is_symmetric());
        prop_assert_eq!(snap.num_edges(), oracle.len());
    }

    // Every published snapshot carries the membership of its own graph:
    // labels bit-identical to the static kernel, sizes equal to the
    // label populations, and the window gauges equal to a from-scratch
    // count over the live edges: the graph's own active-vertex count,
    // and the membership's active components against the static labels
    // of the vertices with an edge.  About one case in eight has `n = 0`;
    // updates that fall outside `0..n` are dropped, so small `n` leave
    // isolated vertices and empty graphs.
    #[test]
    fn published_membership_equals_static_components(
        n in (0usize..=45).prop_map(|n| n.saturating_sub(5)),
        updates in update_seq(40, 300),
    ) {
        let mut g = StreamingGraph::new(n);
        for &u in &updates {
            match u {
                EdgeUpdate::Insert(a, b) if (a.max(b) as usize) < n => {
                    g.insert_edge(a, b).unwrap();
                }
                EdgeUpdate::Delete(a, b) if (a.max(b) as usize) < n => {
                    g.delete_edge(a, b).unwrap();
                }
                _ => {}
            }
        }
        let cell = SnapshotCell::new();
        cell.publish(g.snapshot(), 1);
        let snap = cell.load();
        let membership = &snap.membership;
        let colors = graphct_kernels::connected_components(&*snap.graph);
        prop_assert_eq!(&membership.colors, &colors);
        let mut sizes = vec![0usize; n];
        for &c in &colors {
            sizes[c as usize] += 1;
        }
        prop_assert_eq!(&membership.sizes, &sizes);

        let active: Vec<u32> = (0..n as u32).filter(|&v| g.degree(v) > 0).collect();
        let mut labels: Vec<u32> = active.iter().map(|&v| colors[v as usize]).collect();
        labels.sort_unstable();
        labels.dedup();
        let components = labels.len();
        prop_assert_eq!(g.num_active_vertices(), active.len());
        prop_assert_eq!(membership.active_components(), components);
    }
}
