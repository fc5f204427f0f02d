//! Direct calls into single layers, made only in traced runs: the `mt`
//! primitives under the kernels, the `stream` structure under ingest,
//! and the `obs` router without a socket in front of it.  They give the
//! per-layer numbers that the live runs can only show mixed together.

use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};
use std::time::Instant;

use graphct::mt::prefix::exclusive_prefix_sum;
use graphct::mt::AtomicUsizeArray;
use graphct::obs::{QueryPlane, Router};
use graphct::prelude::*;
use graphct::stream::SnapshotCell;
use graphct::twitter::parse::mentions;

use crate::common::{timed, zipf_rank, Rng};
use crate::stats::median;

pub type Layers = BTreeMap<&'static str, f64>;

fn seconds(f: impl FnOnce()) -> f64 {
    timed(f).1
}

/// Elements of the arrays the `mt` primitives are timed on: 64 MiB of
/// `usize`, sixteen times this machine's 4 MiB L2.  (Its 260 MiB shared
/// L3 cannot be exceeded fourfold inside a ten-second run.)
const MT_ELEMS: usize = 8 << 20;

/// `mt.prefix_sum_elems_per_s` and `mt.fetch_add_ops_per_s`.
pub fn mt_primitives(seed: u64, l: &mut Layers) {
    let mut rng = Rng::new(seed, 20);
    let counts: Vec<usize> = (0..MT_ELEMS).map(|_| rng.below(64)).collect();
    let mut total = 0;
    let prefix_s = seconds(|| total = std::hint::black_box(exclusive_prefix_sum(&counts)).1);
    assert_eq!(total, counts.iter().sum::<usize>(), "prefix sum total");
    l.insert("mt.prefix_sum_elems_per_s", MT_ELEMS as f64 / prefix_s);

    let cells = AtomicUsizeArray::zeros(MT_ELEMS);
    // Reuse the random counts as scattered indices (scaled to the range).
    let adds_s = seconds(|| {
        for (i, &c) in counts.iter().enumerate() {
            cells.fetch_add((i.wrapping_mul(c + 1)) % MT_ELEMS, 1);
        }
    });
    let landed: usize = (0..MT_ELEMS).map(|i| cells.load(i)).sum();
    assert_eq!(landed, MT_ELEMS, "every fetch_add landed");
    l.insert("mt.fetch_add_ops_per_s", MT_ELEMS as f64 / adds_s);
}

/// `stream.*`: a `StreamingGraph` fed the mention pairs of one corpus
/// pass, frozen a few times, then emptied again.
pub fn stream_direct(profile: &DatasetProfile, seed: u64, l: &mut Layers) {
    let (tweets, _pool) = generate_stream(&profile.config, seed);
    let mut labels = VertexLabels::new();
    let mut pairs: Vec<(VertexId, VertexId)> = Vec::new();
    for tweet in &tweets {
        let author = labels.intern(&tweet.author);
        for handle in mentions(&tweet.text) {
            let mentioned = labels.intern(handle);
            if mentioned != author {
                pairs.push((author, mentioned));
            }
        }
    }
    let mut graph = StreamingGraph::new(labels.len());
    let insert_s = seconds(|| {
        for &(u, v) in &pairs {
            graph.insert_edge(u, v).expect("ids are in range");
        }
    });
    l.insert("stream.insert_edges_per_s", pairs.len() as f64 / insert_s);

    let cell = SnapshotCell::new();
    let freezes: Vec<f64> = (0..5)
        .map(|batch| {
            seconds(|| {
                cell.publish(graph.snapshot(), batch);
            }) * 1e3
        })
        .collect();
    l.insert("stream.freeze_ms", median(&freezes));

    let delete_s = seconds(|| {
        for &(u, v) in &pairs {
            graph.delete_edge(u, v).expect("ids are in range");
        }
    });
    assert_eq!(graph.num_edges(), 0, "every inserted edge was deleted");
    l.insert("stream.delete_edges_per_s", pairs.len() as f64 / delete_s);
}

/// `obs.dispatch_*`: `Router::dispatch` on a `QueryPlane` over a frozen
/// copy of the live run's last snapshot — the server's work with no
/// accept loop, socket or HTTP head in the way.
pub fn obs_dispatch(graph: &CsrGraph, seed: u64, l: &mut Layers) {
    let n = graph.num_vertices();
    if n == 0 {
        return;
    }
    let mut labels = VertexLabels::new();
    for v in 0..n {
        labels.intern(&format!("user{v}"));
    }
    let cell = Arc::new(SnapshotCell::new());
    let plane = Arc::new(QueryPlane::new(
        Arc::clone(&cell),
        Arc::new(RwLock::new(labels)),
        seed,
        10,
    ));
    let router = plane.routes(Router::new());
    let dispatch_us = |path: &str, query: &str| {
        let start = Instant::now();
        let response = router.dispatch("GET", path, query);
        let took = start.elapsed().as_secs_f64() * 1e6;
        assert_eq!(response.status, 200, "{path}?{query}: {}", response.body);
        took
    };
    let mut watermark = 0;
    let mut publish = || {
        watermark += 1;
        cell.publish(graph.clone(), watermark);
    };

    // Miss: the first component query after a publish recomputes the
    // epoch's membership.
    let misses: Vec<f64> = (0..10)
        .map(|_| {
            publish();
            dispatch_us("/v1/query/component", "vertex=0")
        })
        .collect();
    l.insert("obs.dispatch_point_miss_us", median(&misses));

    // Hit: the same mix of point queries the clients send, memo warm.
    let mut rng = Rng::new(seed, 21);
    let hits: Vec<f64> = (0..2000)
        .map(|i| {
            let v = zipf_rank(rng.unit(), n);
            match i % 4 {
                0 => dispatch_us("/v1/query/degree", &format!("vertex={v}")),
                1 => dispatch_us("/v1/query/component", &format!("vertex={v}")),
                2 => dispatch_us("/v1/query/ego", &format!("vertex={v}")),
                _ => dispatch_us("/v1/snapshot", ""),
            }
        })
        .collect();
    l.insert("obs.dispatch_point_hit_us", median(&hits));

    // Top-k re-runs sampled betweenness per request.  Each epoch samples
    // other sources, and how many of the 16 land in the giant component
    // decides the cost, so time enough epochs for a steady median.
    let topks: Vec<f64> = (0..24)
        .map(|_| {
            publish();
            dispatch_us("/v1/query/topk", "k=10&samples=16") / 1e3
        })
        .collect();
    l.insert("obs.dispatch_topk_ms", median(&topks));
}
