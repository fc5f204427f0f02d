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
//! are lookups.  `/topk` answers from a `Ranked` run: sampled
//! betweenness scored once and every vertex sorted once, so a request
//! renders `k` entries and does no O(n) work.
//!
//! Default-samples top-k ([`DEFAULT_TOPK_SAMPLES`], what a client that
//! omits `samples=` gets) is ranked off the request path by the
//! analytics lane, one thread (`graphct-obs-analytics`) that `serve`
//! starts.  After each publish the ingest loop hands the new snapshot
//! to the lane, but only while the service is warm (a default top-k
//! request arrived within [`WARM_WINDOW`]); a service nobody asks for
//! top-k ranks nothing.  A default request at epoch `E` is answered by
//! `route_topk`:
//!
//! * (a) the lane's slot holds `E` (or newer): answer it;
//! * (b) the lane has taken `E` (queued or running) and the slot holds
//!   `E − 1`: answer `E − 1`, whose own `epoch`/`staleness_s` say so —
//!   a request never waits on a ranking already in flight;
//! * (c) otherwise: hand `E` to the lane and wait for it.  Concurrent
//!   cold requests share that one run, and all default-samples BC runs
//!   on the lane's one thread.
//!
//! The slot only moves forward, so a client's default top-k replies
//! carry monotone epochs among themselves (not against its other
//! replies, which always answer the current freeze).  A plane without
//! a lane ([`QueryPlane::new`] alone, as offline timing harnesses build
//! it) ranks rule (c) inline on the request thread.  Any other
//! `samples` value is computed on the request thread and memoized per
//! `(epoch, samples)` in a slot of its own, which never evicts the
//! default ranking.
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

use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use graphct_core::{CsrGraph, VertexId, VertexLabels};
use graphct_kernels::telemetry::{TRIANGLES_FOUND, TRIANGLE_PASSES};
use graphct_kernels::{
    betweenness_centrality, ego_net, forward_triangle_counts, top_k_scores, BetweennessConfig,
};
use graphct_stream::{Snapshot, SnapshotCell};
use graphct_trace::{Counter, Histogram};

use crate::http::Response;
use crate::router::{envelope_error, envelope_ok, RouteRequest, Router};

/// Default source-sample count for `/v1/query/topk` when the client
/// does not pass `samples=`.
pub const DEFAULT_TOPK_SAMPLES: usize = 16;

/// How long after the last default-samples top-k request the service
/// counts as warm, so that a publish hands its snapshot to the lane.
/// One second spans several freezes at any pacing the serve workloads
/// use (one per ~160 ms), so a client asking a few times a second finds
/// every epoch ranked, while a service nobody asks runs no BC at all.
pub const WARM_WINDOW: Duration = Duration::from_secs(1);

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
/// Sampled-betweenness runs behind `/v1/query/topk`, on the lane or
/// inline; top-k requests minus this is the share answered by lookup.
pub static TOPK_RANKINGS: Counter = Counter::new(
    "topk_rankings_total",
    "Sampled-betweenness rankings run for /v1/query/topk (analytics lane or inline)",
);
/// Default top-k requests answered from the previous epoch (rule b).
pub static TOPK_PREVIOUS_EPOCH: Counter = Counter::new(
    "topk_previous_epoch_total",
    "Default top-k requests answered from the previous epoch while the lane ranked theirs",
);
/// Default top-k requests that waited for the lane (rule c).
pub static TOPK_WAITS: Counter = Counter::new(
    "topk_waits_total",
    "Default top-k requests that waited for the analytics lane to rank their epoch",
);

/// Touch the query-plane histograms and counters so they appear in the
/// first `/metrics` scrape.  Must run inside an active session.
pub fn register_query_metrics() {
    for h in [
        &QUERY_TOPK_NS,
        &QUERY_COMPONENT_NS,
        &QUERY_DEGREE_NS,
        &QUERY_EGO_NS,
    ] {
        h.touch();
    }
    // A zero-add registers a counter.  The ego endpoint drives the
    // triadic kernels, so their counters are exposed here too.
    for c in [
        &TOPK_RANKINGS,
        &TOPK_PREVIOUS_EPOCH,
        &TOPK_WAITS,
        &TRIANGLE_PASSES,
        &TRIANGLES_FOUND,
    ] {
        c.add(0);
    }
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

/// Per-vertex scores of `graph` for `(samples, seed)`, or the kernel's
/// error message.  Sampled betweenness in production; tests substitute
/// a fake to poison scores or hold the lane mid-ranking.
type Scorer = dyn Fn(&CsrGraph, usize, u64) -> Result<Vec<f64>, String> + Send + Sync;

fn sampled_betweenness(graph: &CsrGraph, samples: usize, seed: u64) -> Result<Vec<f64>, String> {
    betweenness_centrality(graph, &query_bc_config(samples, seed))
        .map(|result| result.scores)
        .map_err(|e| e.to_string())
}

/// One sampled-betweenness run over a snapshot, checked and sorted
/// once so that every read of it is O(k).
pub(crate) struct Ranked {
    /// The freeze scored; replies carry its epoch and staleness.
    snapshot: Arc<Snapshot>,
    /// Sources sampled (`min(samples, n)`).
    samples: usize,
    /// `bc_seed(serve_seed, snapshot.epoch)`.
    seed: u64,
    /// Per-vertex scores, or the kernel's error message.
    scores: Result<Vec<f64>, String>,
    /// Every vertex by (score descending under `total_cmp`, id
    /// ascending): a total order, so `order[..k]` is
    /// `top_k_scores(scores, k)` for every `k`.  Empty when `scores`
    /// is an error or poisoned, which no read ranks.
    order: Vec<VertexId>,
    /// The first vertex with a non-finite score: a kernel bug that
    /// every read of this ranking reports as a `500`.
    first_non_finite: Option<usize>,
}

impl Ranked {
    pub(crate) fn new(
        snapshot: Arc<Snapshot>,
        samples: usize,
        seed: u64,
        scores: Result<Vec<f64>, String>,
    ) -> Self {
        let first_non_finite = scores
            .as_ref()
            .ok()
            .and_then(|s| s.iter().position(|x| !x.is_finite()));
        let order = match &scores {
            Ok(s) if first_non_finite.is_none() => {
                top_k_scores(s, s.len()).iter().map(|&(v, _)| v).collect()
            }
            _ => Vec::new(),
        };
        Self {
            snapshot,
            samples,
            seed,
            scores,
            order,
            first_non_finite,
        }
    }

    fn epoch(&self) -> u64 {
        self.snapshot.epoch
    }

    /// The `k` highest-ranked `(vertex, score)` pairs.
    fn top(&self, k: usize) -> impl Iterator<Item = (VertexId, f64)> + '_ {
        let scores = self.scores.as_deref().unwrap_or_default();
        self.order[..k.min(self.order.len())]
            .iter()
            .map(|&v| (v, scores[v as usize]))
    }
}

/// How a default-samples top-k request is answered (module doc).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TopkRoute {
    /// (a) The slot holds the request's epoch or a newer one.
    Ranked,
    /// (b) The lane is on the request's epoch; answer the one before.
    Previous,
    /// (c) Hand the epoch to the lane and wait for it.
    Wait,
}

/// The rule for a default-samples request on epoch `current`, given
/// the epoch the lane's slot holds and whether the lane has taken
/// `current` (queued or running).
pub(crate) fn route_topk(current: u64, ranked: Option<u64>, taken: bool) -> TopkRoute {
    match ranked {
        Some(r) if r >= current => TopkRoute::Ranked,
        Some(r) if taken && r + 1 == current => TopkRoute::Previous,
        _ => TopkRoute::Wait,
    }
}

/// The default-samples ranking and the analytics lane's queue, under
/// one lock.  Every update is a whole-field assignment, so a poisoned
/// lock still guards valid state.
#[derive(Default)]
struct LaneState {
    /// Newest default-samples ranking; its epoch only grows.
    ranked: Option<Arc<Ranked>>,
    /// Newest snapshot handed to the lane and not yet started.
    queued: Option<Arc<Snapshot>>,
    /// Epoch the lane is ranking now.
    running: Option<u64>,
    /// When the last default-samples top-k request arrived.
    last_demand: Option<Instant>,
    /// A lane thread serves this plane.
    lane: bool,
    /// The lane is asked to exit after its current ranking.
    stop: bool,
}

impl LaneState {
    /// Has the lane taken `epoch` (queued or running)?
    fn taken(&self, epoch: u64) -> bool {
        self.running == Some(epoch) || self.queued.as_ref().is_some_and(|s| s.epoch == epoch)
    }

    /// Queue `snap` for the lane unless the lane already has it or
    /// something newer queued, running or ranked.  Returns whether it
    /// queued.
    fn offer(&mut self, snap: Arc<Snapshot>) -> bool {
        let newest = [
            self.queued.as_ref().map(|s| s.epoch),
            self.running,
            self.ranked.as_ref().map(|r| r.epoch()),
        ]
        .into_iter()
        .flatten()
        .max();
        let fresh = newest.is_none_or(|e| e < snap.epoch);
        if fresh {
            self.queued = Some(snap);
        }
        fresh
    }

    /// Keep `ranked` if it is newer than the slot.
    fn store(&mut self, ranked: &Arc<Ranked>) {
        if self
            .ranked
            .as_ref()
            .is_none_or(|r| r.epoch() < ranked.epoch())
        {
            self.ranked = Some(Arc::clone(ranked));
        }
    }
}

/// Shared state behind the `/v1/*` handlers.
pub struct QueryPlane {
    snapshots: Arc<SnapshotCell>,
    labels: Arc<RwLock<VertexLabels>>,
    serve_seed: u64,
    topk_default: usize,
    score: Box<Scorer>,
    /// Default-samples ranking and lane queue; `lane_changed` is
    /// notified on every change a lane or a waiter acts on.
    lane: Mutex<LaneState>,
    lane_changed: Condvar,
    /// Memo for any other `samples`: one slot keyed by
    /// `(epoch, samples)`.
    topk_memo: Mutex<Option<Arc<Ranked>>>,
}

impl QueryPlane {
    /// Build the plane over the serve loop's snapshot cell and label
    /// directory.  `topk_default` is the `k` used when a client omits
    /// `k=` (the CLI's `--topk`).  Starts no thread: until `serve`
    /// starts the analytics lane, default top-k ranks inline.
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
            score: Box::new(sampled_betweenness),
            lane: Mutex::new(LaneState::default()),
            lane_changed: Condvar::new(),
            topk_memo: Mutex::new(None),
        }
    }

    fn lane_state(&self) -> MutexGuard<'_, LaneState> {
        self.lane.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait_lane<'a>(&self, state: MutexGuard<'a, LaneState>) -> MutexGuard<'a, LaneState> {
        self.lane_changed
            .wait(state)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Score and rank `snap` over `min(samples, n)` sources.
    fn rank(&self, snap: Arc<Snapshot>, samples: usize) -> Arc<Ranked> {
        let samples = samples.min(snap.graph.num_vertices());
        let seed = bc_seed(self.serve_seed, snap.epoch);
        TOPK_RANKINGS.incr();
        let scores = (self.score)(&snap.graph, samples, seed);
        Arc::new(Ranked::new(snap, samples, seed, scores))
    }

    /// Start the analytics lane: one thread that ranks, at default
    /// samples, each snapshot handed to it by [`published`](Self::published)
    /// or by a waiting request.  Stop it with [`stop_lane`](Self::stop_lane)
    /// and join the handle.
    pub(crate) fn spawn_lane(self: &Arc<Self>) -> std::io::Result<JoinHandle<()>> {
        self.lane_state().lane = true;
        let plane = Arc::clone(self);
        std::thread::Builder::new()
            .name("graphct-obs-analytics".into())
            .spawn(move || {
                graphct_trace::register_current_thread();
                plane.lane_loop();
            })
            .inspect_err(|_| self.lane_state().lane = false)
    }

    fn lane_loop(&self) {
        /// Marks the lane gone, with nothing taken, on every exit (a
        /// panic included), so requests rank inline instead of waiting
        /// on it or answering by rule (b) forever.
        struct Gone<'a>(&'a QueryPlane);
        impl Drop for Gone<'_> {
            fn drop(&mut self) {
                let mut state = self.0.lane_state();
                state.lane = false;
                state.queued = None;
                state.running = None;
                drop(state);
                self.0.lane_changed.notify_all();
            }
        }
        let _gone = Gone(self);
        loop {
            let snap = {
                let mut state = self.lane_state();
                loop {
                    if state.stop {
                        return;
                    }
                    if let Some(snap) = state.queued.take() {
                        state.running = Some(snap.epoch);
                        break snap;
                    }
                    state = self.wait_lane(state);
                }
            };
            let ranked = self.rank(snap, DEFAULT_TOPK_SAMPLES);
            let mut state = self.lane_state();
            state.running = None;
            state.store(&ranked);
            drop(state);
            self.lane_changed.notify_all();
        }
    }

    /// Ingest's notice that `snap` was just published: hand it to the
    /// lane if the service is warm.
    pub(crate) fn published(&self, snap: Arc<Snapshot>) {
        let mut state = self.lane_state();
        let warm = state.last_demand.is_some_and(|t| t.elapsed() < WARM_WINDOW);
        if state.lane && warm && state.offer(snap) {
            drop(state);
            self.lane_changed.notify_all();
        }
    }

    /// Block until the lane has ranked everything handed to it.  With
    /// ingest paused, a default top-k request then answers the frozen
    /// epoch by rule (a) or (c), never (b).
    pub(crate) fn settle_lane(&self) {
        let mut state = self.lane_state();
        while state.lane && (state.queued.is_some() || state.running.is_some()) {
            state = self.wait_lane(state);
        }
    }

    /// Ask the lane to exit once its current ranking is stored; queued
    /// work is dropped.  Requests waiting on it then rank inline.
    pub(crate) fn stop_lane(&self) {
        self.lane_state().stop = true;
        self.lane_changed.notify_all();
    }

    /// The default-samples ranking a request on `snap` answers from,
    /// by [`route_topk`].
    fn default_ranking(&self, snap: &Arc<Snapshot>) -> Arc<Ranked> {
        let mut state = self.lane_state();
        state.last_demand = Some(Instant::now());
        let slot = state.ranked.as_ref().map(|r| r.epoch());
        let route = route_topk(snap.epoch, slot, state.taken(snap.epoch));
        if route != TopkRoute::Wait {
            if route == TopkRoute::Previous {
                TOPK_PREVIOUS_EPOCH.incr();
            }
            return Arc::clone(
                state
                    .ranked
                    .as_ref()
                    .expect("rules (a) and (b) read the slot"),
            );
        }
        if state.lane {
            TOPK_WAITS.incr();
            if state.offer(Arc::clone(snap)) {
                self.lane_changed.notify_all();
            }
            loop {
                if let Some(r) = state.ranked.as_ref().filter(|r| r.epoch() >= snap.epoch) {
                    return Arc::clone(r);
                }
                if !state.lane {
                    break;
                }
                state = self.wait_lane(state);
            }
        }
        drop(state);
        let ranked = self.rank(Arc::clone(snap), DEFAULT_TOPK_SAMPLES);
        self.lane_state().store(&ranked);
        ranked
    }

    /// The ranking for any other `samples` (`1..=n`), reused across
    /// requests for the same `(epoch, samples)`.
    ///
    /// The memo holds one slot, looked up and stored under a short lock;
    /// the BC run happens outside it.  A result replaces the slot unless
    /// the slot already holds a newer epoch (a reader still on a previous
    /// snapshot never evicts newer scores).  Two requests that miss at
    /// once both compute.
    fn memo_ranking(&self, snap: &Arc<Snapshot>, samples: usize) -> Arc<Ranked> {
        // Every update is one whole-slot assignment, so a poisoned lock
        // still guards a valid slot.
        let memo = || {
            self.topk_memo
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
        };
        if let Some(ranked) = memo().as_ref() {
            if (ranked.epoch(), ranked.samples) == (snap.epoch, samples) {
                return Arc::clone(ranked);
            }
        }
        let ranked = self.rank(Arc::clone(snap), samples);
        let mut slot = memo();
        if slot.as_ref().is_none_or(|r| r.epoch() <= snap.epoch) {
            *slot = Some(Arc::clone(&ranked));
        }
        ranked
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
        let ranked = if n == 0 || samples == 0 {
            let seed = bc_seed(self.serve_seed, snap.epoch);
            Arc::new(Ranked::new(snap, 0, seed, Ok(Vec::new())))
        } else if samples.min(n) == DEFAULT_TOPK_SAMPLES.min(n) {
            self.default_ranking(&snap)
        } else {
            self.memo_ranking(&snap, samples.min(n))
        };
        let resp = self.render_topk(&ranked, k, samples);
        if let Some(t) = timer {
            QUERY_TOPK_NS.record_duration(t.elapsed());
        }
        resp
    }

    /// Render the `/v1/query/topk` payload: the first `k` entries of
    /// `ranked`, stamped with its snapshot's epoch and staleness.
    ///
    /// The betweenness kernels only produce finite scores, but a
    /// poisoned ranking must degrade to a `500` error envelope on every
    /// read — never serve garbage as influence data.
    pub(crate) fn render_topk(&self, ranked: &Ranked, k: usize, samples: usize) -> Response {
        let snap = &ranked.snapshot;
        if let Err(e) = &ranked.scores {
            return envelope_error(400, snap.epoch, snap.staleness(), e);
        }
        if let Some(v) = ranked.first_non_finite {
            return envelope_error(
                500,
                snap.epoch,
                snap.staleness(),
                &format!("internal error: non-finite betweenness score for vertex {v}"),
            );
        }
        let labels = self.labels.read().expect("labels poisoned");
        let entries: Vec<String> = ranked
            .top(k)
            .map(|(v, score)| {
                format!(
                    "{{\"vertex\":{v},\"user\":{},\"score\":{score}}}",
                    json_name(&labels, v)
                )
            })
            .collect();
        drop(labels);
        let data = format!(
            "{{\"k\":{k},\"samples\":{samples},\"seed\":{},\"top\":[{}]}}",
            ranked.seed,
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
    use graphct_kernels::top_k_betweenness;
    use graphct_stream::StreamingGraph;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Barrier};

    impl QueryPlane {
        /// Score with `score` instead of sampled betweenness.
        fn with_scorer(
            mut self,
            score: impl Fn(&CsrGraph, usize, u64) -> Result<Vec<f64>, String> + Send + Sync + 'static,
        ) -> Self {
            self.score = Box::new(score);
            self
        }
    }

    fn freeze(n: usize, edges: &[(VertexId, VertexId)]) -> CsrGraph {
        let mut g = StreamingGraph::new(n);
        for &(u, v) in edges {
            g.insert_edge(u, v).unwrap();
        }
        g.snapshot()
    }

    /// A plane (no lane) whose epoch 1 is `edges` over the users `names`.
    fn bare_plane(edges: &[(VertexId, VertexId)], names: &[&str]) -> QueryPlane {
        let cell = Arc::new(SnapshotCell::new());
        let mut labels = VertexLabels::new();
        for n in names {
            labels.intern(n);
        }
        cell.publish(freeze(names.len(), edges), 1);
        QueryPlane::new(cell, Arc::new(RwLock::new(labels)), 42, 10)
    }

    fn plane_with(edges: &[(VertexId, VertexId)], names: &[&str]) -> (Arc<QueryPlane>, Router) {
        let plane = Arc::new(bare_plane(edges, names));
        let router = plane.routes(Router::new());
        (plane, router)
    }

    /// Publish `edges` as the next epoch the way the ingest loop does.
    fn publish(plane: &QueryPlane, n: usize, edges: &[(VertexId, VertexId)]) -> Arc<Snapshot> {
        let epoch = plane.snapshots.epoch();
        plane.snapshots.publish(freeze(n, edges), epoch + 1);
        let snap = plane.snapshots.load();
        plane.published(Arc::clone(&snap));
        snap
    }

    /// Vertices of [`ring_plane`]'s graph: more than the default samples.
    const RING: usize = 40;

    /// A plane (no lane) whose epoch 1 is a ring over [`RING`] vertices
    /// with chords `i → 7i mod RING`, and that ring's edges.
    fn ring_plane() -> (QueryPlane, Vec<(VertexId, VertexId)>) {
        let n = RING as VertexId;
        let edges: Vec<_> = (0..n)
            .flat_map(|i| [(i, (i + 1) % n), (i, i * 7 % n)])
            .filter(|&(u, v)| u < v)
            .collect();
        let names: Vec<String> = (0..RING).map(|i| format!("@u{i}")).collect();
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        (bare_plane(&edges, &names), edges)
    }

    /// A scorer that runs sampled betweenness and counts its calls.
    fn counting_scorer(
        calls: &Arc<AtomicUsize>,
    ) -> impl Fn(&CsrGraph, usize, u64) -> Result<Vec<f64>, String> + Send + Sync + 'static {
        let calls = Arc::clone(calls);
        move |g, samples, seed| {
            calls.fetch_add(1, Ordering::SeqCst);
            sampled_betweenness(g, samples, seed)
        }
    }

    /// The `epoch` and `data` members of a `/v1/*` envelope.
    fn epoch_and_data(body: &str) -> (u64, graphct_trace::json::Json) {
        let v = graphct_trace::json::parse(body).unwrap_or_else(|e| panic!("{e}: {body}"));
        let epoch = v.get("epoch").and_then(|e| e.as_u64()).expect("epoch");
        (epoch, v.get("data").cloned().expect("data"))
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
        // ranking sort.  It must degrade to a versioned 500 envelope,
        // on every read of the ranking, not only the one that ran it.
        let names = ["@a", "@b", "@c"];
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let calls = Arc::new(AtomicUsize::new(0));
            let counted = Arc::clone(&calls);
            let plane = Arc::new(bare_plane(&[(0, 1), (1, 2)], &names).with_scorer(
                move |_, _, _| {
                    counted.fetch_add(1, Ordering::SeqCst);
                    Ok(vec![0.5, bad, 1.0])
                },
            ));
            let router = plane.routes(Router::new());
            for k in [3, 1, 3] {
                let resp = router.dispatch("GET", "/v1/query/topk", &format!("k={k}"));
                assert_eq!(resp.status, 500);
                assert!(
                    resp.body.contains("\"error\"")
                        && resp
                            .body
                            .contains("non-finite betweenness score for vertex 1"),
                    "{}",
                    resp.body
                );
                graphct_trace::json::parse(&resp.body).expect("error envelope must stay JSON");
            }
            assert_eq!(
                calls.load(Ordering::SeqCst),
                1,
                "one ranking, read three times"
            );
        }
        // Finite scores through the same seam still rank.
        let plane = Arc::new(
            bare_plane(&[(0, 1), (1, 2)], &names).with_scorer(|_, _, _| Ok(vec![0.5, 2.0, 1.0])),
        );
        let resp = plane
            .routes(Router::new())
            .dispatch("GET", "/v1/query/topk", "k=2");
        assert_eq!(resp.status, 200);
        assert!(
            resp.body.contains("\"top\":[{\"vertex\":1,"),
            "{}",
            resp.body
        );
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
        // the same epoch all read that one ranking.
        let first = plane.memo_ranking(&snap, 4);
        let barrier = Barrier::new(4);
        let (rankings, bodies): (Vec<_>, Vec<_>) = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        let ranked = plane.memo_ranking(&snap, 4);
                        let body = router
                            .dispatch("GET", "/v1/query/topk", "k=3&samples=4")
                            .body;
                        (ranked, body)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).unzip()
        });
        for (r, body) in rankings.iter().zip(&bodies) {
            assert!(Arc::ptr_eq(r, &first), "one epoch, one ranking");
            assert_eq!(data_of(body), data_of(&bodies[0]));
        }

        // Another sample count recomputes, and replaces the slot; the
        // default-samples ranking lives apart and is never evicted.
        let default = plane.default_ranking(&snap);
        let other = plane.memo_ranking(&snap, 3);
        assert!(!Arc::ptr_eq(&other, &first));
        assert!(Arc::ptr_eq(&plane.memo_ranking(&snap, 3), &other));
        assert!(Arc::ptr_eq(&plane.default_ranking(&snap), &default));

        // A new epoch recomputes; a request still on the old epoch then
        // computes without evicting the newer slot.
        let fresh = publish(&plane, 6, &edges[..4]);
        let newer = plane.memo_ranking(&fresh, 3);
        assert!(!Arc::ptr_eq(&newer, &other));
        let stale = plane.memo_ranking(&snap, 3);
        assert!(!Arc::ptr_eq(&stale, &newer));
        assert_eq!(
            stale.scores, other.scores,
            "the old epoch's answer is unchanged"
        );
        assert!(
            Arc::ptr_eq(&plane.memo_ranking(&fresh, 3), &newer),
            "the stale request left the newer slot in place"
        );
    }

    #[test]
    fn topk_route_follows_rules_a_b_c() {
        use TopkRoute::{Previous, Ranked, Wait};
        // (request epoch, slot epoch, lane has taken the request epoch)
        let table = [
            ((5, Some(5), false), Ranked),
            ((5, Some(5), true), Ranked),
            ((5, Some(6), false), Ranked), // request loaded an older freeze
            ((5, Some(4), true), Previous),
            ((5, Some(4), false), Wait), // nobody is on epoch 5 yet
            ((5, Some(3), true), Wait),  // two behind: too stale to serve
            ((5, None, true), Wait),     // cold: nothing to fall back on
            ((5, None, false), Wait),
            ((1, Some(0), true), Previous),
        ];
        for ((current, slot, taken), want) in table {
            assert_eq!(
                route_topk(current, slot, taken),
                want,
                "epoch {current}, slot {slot:?}, taken {taken}"
            );
        }
    }

    #[test]
    fn lane_ranking_is_bit_identical_to_offline_top_k() {
        let plane = Arc::new(ring_plane().0);
        let router = plane.routes(Router::new());
        let lane = plane.spawn_lane().unwrap();
        let n = RING;
        let snap = plane.snapshots.load();
        let config = query_bc_config(DEFAULT_TOPK_SAMPLES.min(n), bc_seed(42, snap.epoch));
        for k in [1, 10, n, n + 5] {
            let want = top_k_betweenness(&snap.graph, &config, k).unwrap();
            let resp = router.dispatch("GET", "/v1/query/topk", &format!("k={k}"));
            assert_eq!(resp.status, 200, "{}", resp.body);
            let (epoch, data) = epoch_and_data(&resp.body);
            assert_eq!(epoch, snap.epoch);
            let served: Vec<(u64, u64)> = data
                .get("top")
                .and_then(|t| t.as_arr())
                .expect("top array")
                .iter()
                .map(|e| {
                    let vertex = e.get("vertex").and_then(|v| v.as_u64()).unwrap();
                    let score = e.get("score").and_then(|v| v.as_f64()).unwrap();
                    (vertex, score.to_bits())
                })
                .collect();
            let want: Vec<(u64, u64)> = want
                .iter()
                .map(|&(v, score)| (u64::from(v), score.to_bits()))
                .collect();
            assert_eq!(served, want, "k = {k}");
        }
        plane.stop_lane();
        lane.join().unwrap();
    }

    #[test]
    fn cold_requests_share_one_lane_ranking() {
        let calls = Arc::new(AtomicUsize::new(0));
        let plane = Arc::new(ring_plane().0.with_scorer(counting_scorer(&calls)));
        let lane = plane.spawn_lane().unwrap();
        let snap = plane.snapshots.load();
        let barrier = Barrier::new(4);
        let rankings: Vec<Arc<Ranked>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        plane.default_ranking(&snap)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1, "one epoch, one BC run");
        for r in &rankings {
            assert!(Arc::ptr_eq(r, &rankings[0]));
        }
        assert_eq!(rankings[0].epoch(), snap.epoch);
        plane.stop_lane();
        lane.join().unwrap();
    }

    #[test]
    fn publishes_rank_nothing_until_a_default_topk_request() {
        let (plane, edges) = ring_plane();
        let calls = Arc::new(AtomicUsize::new(0));
        let plane = Arc::new(plane.with_scorer(counting_scorer(&calls)));
        let lane = plane.spawn_lane().unwrap();

        // Cold: three publishes hand the lane nothing.
        for cut in [10, 20, 30] {
            publish(&plane, RING, &edges[..cut]);
            assert!(plane.lane_state().queued.is_none());
        }
        plane.settle_lane();
        assert_eq!(calls.load(Ordering::SeqCst), 0);
        // A non-default request does not warm the lane either.
        plane
            .routes(Router::new())
            .dispatch("GET", "/v1/query/topk", "samples=3");
        publish(&plane, RING, &edges);
        assert!(plane.lane_state().queued.is_none());
        assert_eq!(calls.load(Ordering::SeqCst), 1);

        // One default request warms it: the next publish is ranked by
        // the lane with no request in sight.
        plane.default_ranking(&plane.snapshots.load());
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        let snap = publish(&plane, RING, &edges[..35]);
        plane.settle_lane();
        assert_eq!(calls.load(Ordering::SeqCst), 3);
        let ranked = plane.lane_state().ranked.clone().expect("lane stored it");
        assert_eq!(ranked.epoch(), snap.epoch);
        plane.stop_lane();
        lane.join().unwrap();
    }

    #[test]
    fn busy_lane_serves_the_previous_epoch_and_stops_after_its_ranking() {
        let (plane, edges) = ring_plane();
        // The scorer reports each start and then holds until released,
        // so the test decides when a ranking ends.
        let (started_tx, started) = mpsc::channel();
        let (release, release_rx) = mpsc::channel::<()>();
        let release_rx = Mutex::new(release_rx);
        let calls = Arc::new(AtomicUsize::new(0));
        let score = counting_scorer(&calls);
        let plane = Arc::new(plane.with_scorer(move |g, samples, seed| {
            started_tx.send(()).unwrap();
            release_rx.lock().unwrap().recv().unwrap();
            score(g, samples, seed)
        }));
        let router = plane.routes(Router::new());
        let lane = plane.spawn_lane().unwrap();

        // Cold request on epoch 1: rule (c), the lane ranks it.
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| router.dispatch("GET", "/v1/query/topk", "k=3"));
            started.recv().unwrap();
            release.send(()).unwrap();
            let (epoch, _) = epoch_and_data(&waiter.join().unwrap().body);
            assert_eq!(epoch, 1);
        });

        // Epoch 2 is published while warm; the lane takes it and holds.
        publish(&plane, RING, &edges[..30]);
        started.recv().unwrap();
        // Rule (b): a request on epoch 2 answers epoch 1 at once.
        let resp = router.dispatch("GET", "/v1/query/topk", "k=3");
        assert_eq!(epoch_and_data(&resp.body).0, 1, "{}", resp.body);
        assert_eq!(plane.snapshots.epoch(), 2);

        // Epoch 3 queues behind the running ranking; stopping the lane
        // lets the running one finish and drops epoch 3.
        let third = publish(&plane, RING, &edges[..20]);
        assert!(plane.lane_state().taken(third.epoch));
        let asked = Instant::now();
        plane.stop_lane();
        release.send(()).unwrap();
        lane.join().unwrap();
        assert!(asked.elapsed() < Duration::from_secs(2));
        assert_eq!(calls.load(Ordering::SeqCst), 2, "epoch 3 was never ranked");
        assert_eq!(plane.lane_state().ranked.as_ref().unwrap().epoch(), 2);

        // With the lane gone, rule (c) ranks inline instead of waiting.
        release.send(()).unwrap();
        let resp = router.dispatch("GET", "/v1/query/topk", "k=3");
        assert_eq!(epoch_and_data(&resp.body).0, 3, "{}", resp.body);
        assert_eq!(calls.load(Ordering::SeqCst), 3);
    }
}
