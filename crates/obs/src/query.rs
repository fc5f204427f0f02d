//! The `/v1/query/*` plane: graph queries answered from frozen
//! snapshots while ingest continues.
//!
//! Every handler loads the current [`Snapshot`] once, answers entirely
//! from that freeze, and stamps the response envelope with the
//! snapshot's epoch and staleness — so a client always knows *which*
//! graph it was answered from and how old that graph is.  Queries are
//! pure functions of `(snapshot, query params, serve seed)`: the
//! integration tests recompute them offline with the same kernels and
//! demand bit-identical answers for the same epoch.
//!
//! No request repeats graph-wide work another request on the same epoch
//! already did.  Component membership ships inside the snapshot (the
//! publisher computes it at freeze time), so `/component` and `/degree`
//! are lookups.  `/topk` scores are memoized per `(epoch, samples)`:
//! the first request on an epoch runs sampled betweenness, and later
//! requests for the same key reuse its scores.
//!
//! Endpoints (all wrapped in the versioned envelope of
//! [`crate::router`]):
//!
//! | route                  | answer                                        |
//! |------------------------|-----------------------------------------------|
//! | `/v1/query/topk`       | top-k influencers by sampled betweenness      |
//! | `/v1/query/component`  | component id + size for a vertex/user         |
//! | `/v1/query/degree`     | degree and reach (component size − 1)         |
//! | `/v1/query/ego`        | one-hop ego net (members + induced edges)     |
//! | `/v1/snapshot`         | current freeze metadata                       |
//! | `/v1/snapshot/refresh` | ask ingest for a fresh freeze next batch      |

use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::Instant;

use graphct_core::{VertexId, VertexLabels};
use graphct_kernels::telemetry::{TRIANGLES_FOUND, TRIANGLE_PASSES};
use graphct_kernels::{
    betweenness_centrality, ego_net, forward_triangle_counts, top_k_scores, BetweennessConfig,
};
use graphct_stream::{Snapshot, SnapshotCell};
use graphct_trace::Histogram;

use crate::http::Response;
use crate::router::{envelope_error, envelope_ok, RouteRequest, Router};

/// Default source-sample count for `/v1/query/topk` when the client
/// does not pass `samples=`.
pub const DEFAULT_TOPK_SAMPLES: usize = 16;

/// Per-endpoint latency histograms (registered lazily inside the serve
/// session, like the ingest metrics).
pub static QUERY_TOPK_NS: Histogram = Histogram::new(
    "query_topk_ns",
    "Nanoseconds to answer one /v1/query/topk request",
);
/// `/v1/query/component` latency.
pub static QUERY_COMPONENT_NS: Histogram = Histogram::new(
    "query_component_ns",
    "Nanoseconds to answer one /v1/query/component request",
);
/// `/v1/query/degree` latency.
pub static QUERY_DEGREE_NS: Histogram = Histogram::new(
    "query_degree_ns",
    "Nanoseconds to answer one /v1/query/degree request",
);
/// `/v1/query/ego` latency.
pub static QUERY_EGO_NS: Histogram = Histogram::new(
    "query_ego_ns",
    "Nanoseconds to answer one /v1/query/ego request",
);

/// Touch the query-plane histograms so they appear in the first
/// `/metrics` scrape.  Must run inside an active session.
pub fn register_query_metrics() {
    for h in [
        &QUERY_TOPK_NS,
        &QUERY_COMPONENT_NS,
        &QUERY_DEGREE_NS,
        &QUERY_EGO_NS,
    ] {
        h.touch();
    }
    // The ego endpoint drives the triadic kernels; a zero-add registers
    // their counters so the first scrape already exposes them.
    TRIANGLE_PASSES.add(0);
    TRIANGLES_FOUND.add(0);
}

/// The deterministic per-epoch seed for sampled betweenness: queries
/// against the same frozen epoch always sample the same sources, so an
/// offline recompute with the same seed is bit-identical, while new
/// epochs rotate the sample.
pub fn bc_seed(serve_seed: u64, epoch: u64) -> u64 {
    serve_seed ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The betweenness configuration `/v1/query/topk` runs: `samples`
/// sampled sources under `seed`, MS-BFS batched.  Public so oracle
/// checks recompute with the exact same configuration.
pub fn query_bc_config(samples: usize, seed: u64) -> BetweennessConfig {
    let mut cfg = BetweennessConfig::sampled(samples, seed);
    cfg.batch = samples.clamp(1, graphct_kernels::MAX_BATCH);
    cfg
}

/// Sampled betweenness scores for one `(epoch, samples)`, or the
/// kernel's error message.
type TopkScores = Result<Arc<Vec<f64>>, String>;

/// The top-k memo slot: `(epoch, samples, scores)`.
type TopkSlot = (u64, usize, Arc<Vec<f64>>);

/// Shared state behind the `/v1/*` handlers.
pub struct QueryPlane {
    snapshots: Arc<SnapshotCell>,
    labels: Arc<RwLock<VertexLabels>>,
    serve_seed: u64,
    topk_default: usize,
    topk_memo: Mutex<Option<TopkSlot>>,
}

impl QueryPlane {
    /// Build the plane over the serve loop's snapshot cell and label
    /// directory.  `topk_default` is the `k` used when a client omits
    /// `k=` (the CLI's `--topk`).
    pub fn new(
        snapshots: Arc<SnapshotCell>,
        labels: Arc<RwLock<VertexLabels>>,
        serve_seed: u64,
        topk_default: usize,
    ) -> Self {
        Self {
            snapshots,
            labels,
            serve_seed,
            topk_default: topk_default.max(1),
            topk_memo: Mutex::new(None),
        }
    }

    /// Sampled betweenness of `snap` over `samples` sources (`1..=n`),
    /// reused across requests for the same `(epoch, samples)`.
    ///
    /// The memo holds one slot, looked up and stored under a short lock;
    /// the BC run happens outside it.  A result replaces the slot unless
    /// the slot already holds a newer epoch (a reader still on a previous
    /// snapshot never evicts newer scores).  Two requests that miss at
    /// once both compute: the serve workloads send top-k on one
    /// connection, so that never happens there.
    fn topk_scores(&self, snap: &Snapshot, samples: usize) -> TopkScores {
        // Every update is one whole-slot assignment, so a poisoned lock
        // still guards a valid slot.
        let memo = || {
            self.topk_memo
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
        };
        if let Some((epoch, s, scores)) = memo().as_ref() {
            if (*epoch, *s) == (snap.epoch, samples) {
                return Ok(Arc::clone(scores));
            }
        }
        let config = query_bc_config(samples, bc_seed(self.serve_seed, snap.epoch));
        let scores = betweenness_centrality(&snap.graph, &config)
            .map(|result| Arc::new(result.scores))
            .map_err(|e| e.to_string())?;
        let mut slot = memo();
        if slot
            .as_ref()
            .is_none_or(|(epoch, _, _)| *epoch <= snap.epoch)
        {
            *slot = Some((snap.epoch, samples, Arc::clone(&scores)));
        }
        Ok(scores)
    }

    /// Register every `/v1/*` route on `router`.
    pub fn routes(self: &Arc<Self>, router: Router) -> Router {
        let plane = Arc::clone(self);
        let router = router.get("/v1/query/topk", move |req| plane.topk(req));
        let plane = Arc::clone(self);
        let router = router.get("/v1/query/component", move |req| plane.component(req));
        let plane = Arc::clone(self);
        let router = router.get("/v1/query/degree", move |req| plane.degree(req));
        let plane = Arc::clone(self);
        let router = router.get("/v1/query/ego", move |req| plane.ego(req));
        let plane = Arc::clone(self);
        let router = router.get("/v1/snapshot", move |req| plane.snapshot_info(req));
        let plane = Arc::clone(self);
        router.get("/v1/snapshot/refresh", move |req| {
            plane.snapshot_refresh(req)
        })
    }

    fn topk(&self, req: &RouteRequest<'_>) -> Response {
        let timer = graphct_trace::enabled().then(Instant::now);
        let snap = self.snapshots.load();
        let k = match parse_usize(req, "k", self.topk_default) {
            Ok(v) => v,
            Err(resp) => return bad_request(&snap, resp),
        };
        let samples = match parse_usize(req, "samples", DEFAULT_TOPK_SAMPLES) {
            Ok(v) => v,
            Err(resp) => return bad_request(&snap, resp),
        };
        let n = snap.graph.num_vertices();
        let seed = bc_seed(self.serve_seed, snap.epoch);
        let resp = if n == 0 || samples == 0 {
            self.render_topk(&snap, &[], k, samples, seed)
        } else {
            match self.topk_scores(&snap, samples.min(n)) {
                Ok(scores) => self.render_topk(&snap, &scores, k, samples, seed),
                Err(e) => return envelope_error(400, snap.epoch, snap.staleness(), &e),
            }
        };
        if let Some(t) = timer {
            QUERY_TOPK_NS.record_duration(t.elapsed());
        }
        resp
    }

    /// Rank a per-vertex score array and render the `/v1/query/topk`
    /// payload for `snap`.
    ///
    /// Split from the HTTP handler so the non-finite guard is testable
    /// in isolation: the betweenness kernels only produce finite scores,
    /// but a poisoned array must degrade to a `500` error envelope —
    /// never the worker-killing panic the old `partial_cmp` ranking hid
    /// here.  [`top_k_scores`] itself is total over NaN, so ranking
    /// cannot panic either way; the guard keeps garbage from being
    /// served as influence data.
    pub fn render_topk(
        &self,
        snap: &Snapshot,
        scores: &[f64],
        k: usize,
        samples: usize,
        seed: u64,
    ) -> Response {
        if let Some(v) = scores.iter().position(|s| !s.is_finite()) {
            return envelope_error(
                500,
                snap.epoch,
                snap.staleness(),
                &format!("internal error: non-finite betweenness score for vertex {v}"),
            );
        }
        let top = top_k_scores(scores, k);
        let labels = self.labels.read().expect("labels poisoned");
        let entries: Vec<String> = top
            .iter()
            .map(|&(v, score)| {
                format!(
                    "{{\"vertex\":{v},\"user\":{},\"score\":{score}}}",
                    json_name(&labels, v)
                )
            })
            .collect();
        drop(labels);
        let data = format!(
            "{{\"k\":{k},\"samples\":{samples},\"seed\":{seed},\"top\":[{}]}}",
            entries.join(",")
        );
        envelope_ok(snap.epoch, snap.staleness(), &data)
    }

    fn component(&self, req: &RouteRequest<'_>) -> Response {
        let timer = graphct_trace::enabled().then(Instant::now);
        let snap = self.snapshots.load();
        let v = match self.resolve_vertex(req, &snap) {
            Ok(v) => v,
            Err(resp) => return resp,
        };
        let color = snap.membership.colors[v as usize];
        let size = snap.membership.sizes[color as usize];
        let labels = self.labels.read().expect("labels poisoned");
        let data = format!(
            "{{\"vertex\":{v},\"user\":{},\"component\":{color},\"size\":{size}}}",
            json_name(&labels, v)
        );
        drop(labels);
        if let Some(t) = timer {
            QUERY_COMPONENT_NS.record_duration(t.elapsed());
        }
        envelope_ok(snap.epoch, snap.staleness(), &data)
    }

    fn degree(&self, req: &RouteRequest<'_>) -> Response {
        let timer = graphct_trace::enabled().then(Instant::now);
        let snap = self.snapshots.load();
        let v = match self.resolve_vertex(req, &snap) {
            Ok(v) => v,
            Err(resp) => return resp,
        };
        let degree = snap.graph.degree(v);
        // Reach: vertices connected to `v` by some path, excluding `v`
        // itself — its component's population minus one.
        let membership = &snap.membership;
        let reach = membership.sizes[membership.colors[v as usize] as usize] - 1;
        let labels = self.labels.read().expect("labels poisoned");
        let data = format!(
            "{{\"vertex\":{v},\"user\":{},\"degree\":{degree},\"reach\":{reach}}}",
            json_name(&labels, v)
        );
        drop(labels);
        if let Some(t) = timer {
            QUERY_DEGREE_NS.record_duration(t.elapsed());
        }
        envelope_ok(snap.epoch, snap.staleness(), &data)
    }

    fn ego(&self, req: &RouteRequest<'_>) -> Response {
        let timer = graphct_trace::enabled().then(Instant::now);
        let snap = self.snapshots.load();
        let center = match self.resolve_vertex(req, &snap) {
            Ok(v) => v,
            Err(resp) => return resp,
        };
        let net = ego_net(&snap.graph, center);
        // Local triadic structure of the freeze around the ego: the
        // forward counter runs on the induced net, which inherits the
        // snapshot's sorted-simple witness, so no validation scan.
        let (triangles, clustering) = match forward_triangle_counts(&net.graph) {
            Ok(per_vertex) => {
                let local = net
                    .vertices
                    .binary_search(&center)
                    .expect("center is an ego-net member");
                let t = per_vertex[local];
                let d = net.graph.degree(local as VertexId);
                let c = if d < 2 {
                    0.0
                } else {
                    2.0 * t as f64 / (d * (d - 1)) as f64
                };
                (t, c)
            }
            Err(e) => {
                return envelope_error(
                    500,
                    snap.epoch,
                    snap.staleness(),
                    &format!("internal error: ego triangle count failed: {e}"),
                )
            }
        };
        let labels = self.labels.read().expect("labels poisoned");
        let members: Vec<String> = net
            .vertices
            .iter()
            .map(|&v| format!("{{\"vertex\":{v},\"user\":{}}}", json_name(&labels, v)))
            .collect();
        drop(labels);
        // Induced edges in host ids, each unordered pair reported once.
        let mut edges = Vec::with_capacity(net.graph.num_edges());
        for lu in 0..net.graph.num_vertices() as VertexId {
            for &lv in net.graph.neighbors(lu) {
                if lu < lv {
                    edges.push(format!(
                        "[{},{}]",
                        net.vertices[lu as usize], net.vertices[lv as usize]
                    ));
                }
            }
        }
        let data = format!(
            "{{\"center\":{center},\"triangles\":{triangles},\"clustering\":{clustering},\
             \"members\":[{}],\"edges\":[{}]}}",
            members.join(","),
            edges.join(",")
        );
        if let Some(t) = timer {
            QUERY_EGO_NS.record_duration(t.elapsed());
        }
        envelope_ok(snap.epoch, snap.staleness(), &data)
    }

    fn snapshot_info(&self, _req: &RouteRequest<'_>) -> Response {
        let snap = self.snapshots.load();
        let interned = self.labels.read().expect("labels poisoned").len();
        let data = format!(
            "{{\"watermark_batch\":{},\"vertices\":{},\"edges\":{},\"interned_users\":{interned}}}",
            snap.watermark_batch,
            snap.graph.num_vertices(),
            snap.graph.num_edges(),
        );
        envelope_ok(snap.epoch, snap.staleness(), &data)
    }

    fn snapshot_refresh(&self, _req: &RouteRequest<'_>) -> Response {
        let snap = self.snapshots.load();
        self.snapshots.request_refresh();
        envelope_ok(snap.epoch, snap.staleness(), "{\"refresh_requested\":true}")
    }

    /// Resolve `?vertex=ID` or `?user=NAME` to a vertex of `snap`.
    /// Labels can run ahead of the freeze (a user interned after the
    /// snapshot), so ids are bounds-checked against the *snapshot*, not
    /// the directory.
    fn resolve_vertex(
        &self,
        req: &RouteRequest<'_>,
        snap: &Snapshot,
    ) -> Result<VertexId, Response> {
        let v = if let Some(raw) = req.query_param("vertex") {
            raw.parse::<VertexId>().map_err(|_| {
                envelope_error(
                    400,
                    snap.epoch,
                    snap.staleness(),
                    &format!("vertex must be a non-negative integer, got {raw:?}"),
                )
            })?
        } else if let Some(raw) = req.query_param("user") {
            let name = percent_decode(raw);
            self.labels
                .read()
                .expect("labels poisoned")
                .get(&name)
                .ok_or_else(|| {
                    envelope_error(
                        404,
                        snap.epoch,
                        snap.staleness(),
                        &format!("unknown user {name}"),
                    )
                })?
        } else {
            return Err(envelope_error(
                400,
                snap.epoch,
                snap.staleness(),
                "missing vertex= or user= parameter",
            ));
        };
        if (v as usize) >= snap.graph.num_vertices() {
            return Err(envelope_error(
                404,
                snap.epoch,
                snap.staleness(),
                &format!("vertex {v} not yet in snapshot epoch {}", snap.epoch),
            ));
        }
        Ok(v)
    }
}

fn bad_request(snap: &Snapshot, message: String) -> Response {
    envelope_error(400, snap.epoch, snap.staleness(), &message)
}

fn parse_usize(req: &RouteRequest<'_>, name: &str, default: usize) -> Result<usize, String> {
    match req.query_param(name) {
        None => Ok(default),
        Some(raw) => raw
            .parse::<usize>()
            .map_err(|_| format!("{name} must be a non-negative integer, got {raw:?}")),
    }
}

/// The vertex's screen name as a JSON value (`"@user"` or `null`).
fn json_name(labels: &VertexLabels, v: VertexId) -> String {
    match labels.name(v) {
        Some(name) => {
            let mut out = String::with_capacity(name.len() + 2);
            graphct_trace::value::write_json_string(name, &mut out);
            out
        }
        None => "null".to_owned(),
    }
}

/// Minimal `%XX` decoding so `user=%40CDCFlu` works from strict
/// URL-encoding clients (`@` is also accepted raw).
fn percent_decode(raw: &str) -> String {
    let bytes = raw.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            if let Some(byte) = raw
                .get(i + 1..i + 3)
                .and_then(|hex| u8::from_str_radix(hex, 16).ok())
            {
                out.push(byte);
                i += 3;
                continue;
            }
        }
        out.push(bytes[i]);
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphct_stream::StreamingGraph;

    fn plane_with(edges: &[(VertexId, VertexId)], names: &[&str]) -> (Arc<QueryPlane>, Router) {
        let cell = Arc::new(SnapshotCell::new());
        let mut labels = VertexLabels::new();
        for n in names {
            labels.intern(n);
        }
        let mut g = StreamingGraph::new(names.len());
        for &(u, v) in edges {
            g.insert_edge(u, v).unwrap();
        }
        cell.publish(g.snapshot(), 1);
        let plane = Arc::new(QueryPlane::new(cell, Arc::new(RwLock::new(labels)), 42, 10));
        let router = plane.routes(Router::new());
        (plane, router)
    }

    #[test]
    fn component_and_degree_answers() {
        let (_plane, router) =
            plane_with(&[(0, 1), (1, 2), (3, 4)], &["@a", "@b", "@c", "@d", "@e"]);
        let resp = router.dispatch("GET", "/v1/query/component", "user=@b");
        assert_eq!(resp.status, 200);
        assert!(
            resp.body.contains("\"component\":0") && resp.body.contains("\"size\":3"),
            "{}",
            resp.body
        );
        let resp = router.dispatch("GET", "/v1/query/degree", "vertex=1");
        assert!(
            resp.body.contains("\"degree\":2") && resp.body.contains("\"reach\":2"),
            "{}",
            resp.body
        );
        let resp = router.dispatch("GET", "/v1/query/degree", "vertex=3");
        assert!(resp.body.contains("\"reach\":1"), "{}", resp.body);
    }

    #[test]
    fn ego_answers_with_induced_edges() {
        let (_plane, router) = plane_with(&[(0, 1), (0, 2), (1, 2)], &["@a", "@b", "@c"]);
        let resp = router.dispatch("GET", "/v1/query/ego", "user=%40a");
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert!(
            resp.body.contains("[0,1]")
                && resp.body.contains("[0,2]")
                && resp.body.contains("[1,2]"),
            "{}",
            resp.body
        );
        // The ego sits on one closed triangle: coefficient 1.
        assert!(
            resp.body.contains("\"triangles\":1") && resp.body.contains("\"clustering\":1"),
            "{}",
            resp.body
        );
        graphct_trace::json::parse(&resp.body).unwrap();
    }

    #[test]
    fn ego_of_low_degree_vertex_reports_zero_clustering() {
        let (_plane, router) = plane_with(&[(0, 1)], &["@a", "@b"]);
        let resp = router.dispatch("GET", "/v1/query/ego", "vertex=1");
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert!(
            resp.body.contains("\"triangles\":0") && resp.body.contains("\"clustering\":0"),
            "{}",
            resp.body
        );
    }

    #[test]
    fn poisoned_topk_scores_become_an_error_envelope() {
        // The serving crash this guards against: a NaN anywhere in the
        // score array used to panic the worker thread inside the
        // ranking sort.  It must degrade to a versioned 500 envelope.
        let (plane, _router) = plane_with(&[(0, 1), (1, 2)], &["@a", "@b", "@c"]);
        let snap = plane.snapshots.load();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let resp = plane.render_topk(&snap, &[0.5, bad, 1.0], 3, 2, 7);
            assert_eq!(resp.status, 500);
            assert!(
                resp.body.contains("\"error\"") && resp.body.contains("non-finite"),
                "{}",
                resp.body
            );
            graphct_trace::json::parse(&resp.body).expect("error envelope must stay JSON");
        }
        // Finite scores through the same seam still rank.
        let resp = plane.render_topk(&snap, &[0.5, 2.0, 1.0], 2, 2, 7);
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("\"vertex\":1"), "{}", resp.body);
    }

    #[test]
    fn topk_is_deterministic_per_epoch() {
        let (_plane, router) = plane_with(
            &[(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)],
            &["@a", "@b", "@c", "@d", "@e"],
        );
        let a = router.dispatch("GET", "/v1/query/topk", "k=3&samples=5");
        let b = router.dispatch("GET", "/v1/query/topk", "k=3&samples=5");
        assert_eq!(a.status, 200, "{}", a.body);
        assert_eq!(a.body, b.body, "same epoch + params must be bit-identical");
        graphct_trace::json::parse(&a.body).unwrap();
    }

    #[test]
    fn errors_use_the_envelope() {
        let (_plane, router) = plane_with(&[(0, 1)], &["@a", "@b"]);
        let resp = router.dispatch("GET", "/v1/query/degree", "");
        assert_eq!(resp.status, 400);
        assert!(resp.body.contains("\"error\""), "{}", resp.body);
        let resp = router.dispatch("GET", "/v1/query/degree", "user=@missing");
        assert_eq!(resp.status, 404);
        let resp = router.dispatch("GET", "/v1/query/degree", "vertex=99");
        assert_eq!(resp.status, 404);
        let resp = router.dispatch("GET", "/v1/query/topk", "k=nope");
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn labels_ahead_of_snapshot_are_404_not_panic() {
        // Vertex 2 is interned but the frozen graph only has 2 vertices.
        let cell = Arc::new(SnapshotCell::new());
        let mut g = StreamingGraph::new(2);
        g.insert_edge(0, 1).unwrap();
        cell.publish(g.snapshot(), 1);
        let mut labels = VertexLabels::new();
        for n in ["@a", "@b", "@late"] {
            labels.intern(n);
        }
        let plane = Arc::new(QueryPlane::new(cell, Arc::new(RwLock::new(labels)), 42, 10));
        let router = plane.routes(Router::new());
        let resp = router.dispatch("GET", "/v1/query/degree", "user=@late");
        assert_eq!(resp.status, 404);
        assert!(resp.body.contains("not yet in snapshot"), "{}", resp.body);
    }

    #[test]
    fn refresh_sets_the_flag() {
        let (plane, router) = plane_with(&[(0, 1)], &["@a", "@b"]);
        let resp = router.dispatch("GET", "/v1/snapshot/refresh", "");
        assert_eq!(resp.status, 200);
        assert!(plane.snapshots.take_refresh_request());
    }

    #[test]
    fn component_reads_the_snapshots_own_membership() {
        let (plane, router) = plane_with(&[(1, 2), (2, 3)], &["@a", "@b", "@c", "@d"]);
        let held = plane.snapshots.load();
        // The next freeze joins vertex 0 into the path.
        let mut g = StreamingGraph::new(4);
        for (u, v) in [(0, 1), (1, 2), (2, 3)] {
            g.insert_edge(u, v).unwrap();
        }
        plane.snapshots.publish(g.snapshot(), 2);
        let now = plane.snapshots.load();
        assert_eq!((held.membership.sizes[0], now.membership.sizes[0]), (1, 4));
        for v in 0..4u32 {
            let resp = router.dispatch("GET", "/v1/query/component", &format!("vertex={v}"));
            let color = now.membership.colors[v as usize];
            let size = now.membership.sizes[color as usize];
            assert!(
                resp.body.contains(&format!("\"epoch\":{}", now.epoch))
                    && resp.body.contains(&format!("\"component\":{color},"))
                    && resp.body.contains(&format!("\"size\":{size}}}")),
                "{}",
                resp.body
            );
        }
    }

    /// The `data` member of an envelope body (everything the staleness
    /// stamp does not cover).
    fn data_of(body: &str) -> &str {
        &body[body.find("\"data\":").expect("ok envelope")..]
    }

    #[test]
    fn topk_scores_are_memoized_per_epoch_and_samples() {
        let edges = [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3), (4, 5)];
        let (plane, router) = plane_with(&edges, &["@a", "@b", "@c", "@d", "@e", "@f"]);
        let snap = plane.snapshots.load();

        // The first request computes; four concurrent ones after it on
        // the same epoch all read that one score array.
        let first = plane.topk_scores(&snap, 4).unwrap();
        let barrier = std::sync::Barrier::new(4);
        let (scores, bodies): (Vec<_>, Vec<_>) = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        let scores = plane.topk_scores(&snap, 4).unwrap();
                        let body = router
                            .dispatch("GET", "/v1/query/topk", "k=3&samples=4")
                            .body;
                        (scores, body)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).unzip()
        });
        for (s, body) in scores.iter().zip(&bodies) {
            assert!(Arc::ptr_eq(s, &first), "one epoch, one score array");
            assert_eq!(data_of(body), data_of(&bodies[0]));
        }

        // Another sample count recomputes, and replaces the slot.
        let other = plane.topk_scores(&snap, 3).unwrap();
        assert!(!Arc::ptr_eq(&other, &first));
        assert!(Arc::ptr_eq(&plane.topk_scores(&snap, 3).unwrap(), &other));

        // A new epoch recomputes; a request still on the old epoch then
        // computes without evicting the newer slot.
        let mut g = StreamingGraph::new(6);
        for &(u, v) in &edges[..4] {
            g.insert_edge(u, v).unwrap();
        }
        plane.snapshots.publish(g.snapshot(), 2);
        let fresh = plane.snapshots.load();
        let newer = plane.topk_scores(&fresh, 3).unwrap();
        assert!(!Arc::ptr_eq(&newer, &other));
        let stale = plane.topk_scores(&snap, 3).unwrap();
        assert!(!Arc::ptr_eq(&stale, &newer));
        assert_eq!(*stale, *other, "the old epoch's answer is unchanged");
        assert!(
            Arc::ptr_eq(&plane.topk_scores(&fresh, 3).unwrap(), &newer),
            "the stale request left the newer slot in place"
        );
    }
}
