//! Temporal analysis (§I-B "ongoing work examines the data's temporal
//! aspects"; paper ref. [10]): replay a synthetic crisis tweet stream as
//! batched edge insertions and watch the graph's structure evolve.  As
//! in `graphct serve`, each batch ends in a freeze: the streaming graph
//! is published as an epoch-tagged snapshot carrying its component
//! membership, and the static kernels run on the frozen CSR.
//!
//! ```sh
//! cargo run --release --example streaming_tweets
//! ```

use graphct::kernels::global_clustering;
use graphct::prelude::*;
use graphct::twitter::parse::mentions;

fn main() {
    // A scaled H1N1 stream, replayed in arrival order.
    let profile = DatasetProfile::h1n1().scaled(0.1);
    let (tweets, _pool) = generate_stream(&profile.config, 42);
    println!("replaying {} tweets as an edge stream…\n", tweets.len());

    let mut labels = VertexLabels::new();
    let mut graph = StreamingGraph::new(0);
    let cell = SnapshotCell::new();

    println!("epoch  edges-total  active-components  global-clustering");
    for (i, batch) in tweets.chunks(tweets.len().div_ceil(10)).enumerate() {
        for t in batch {
            let author = labels.intern(&t.author);
            for m in mentions(&t.text) {
                let target = labels.intern(m);
                graph.ensure_vertices(labels.len());
                if target != author {
                    graph.insert_edge(author, target).unwrap();
                }
            }
        }
        cell.publish(graph.snapshot(), i as u64 + 1);
        let snap = cell.load();
        println!(
            "{:>5}  {:>11}  {:>17}  {:>17.5}",
            snap.epoch,
            snap.graph.num_edges(),
            snap.membership.active_components(),
            global_clustering(&*snap.graph).unwrap(),
        );
    }

    // The last freeze's membership agrees with the static kernel.
    let snap = cell.load();
    assert_eq!(snap.membership.colors, connected_components(&*snap.graph));
    println!("\nmembership agrees with the static components kernel");
}
