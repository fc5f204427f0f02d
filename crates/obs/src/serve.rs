//! The `graphct serve` driver: stream the synthetic tweet corpus through
//! a [`StreamingGraph`] in paced batches while exporting live metrics.
//!
//! One background thread runs the ingest loop (and owns the trace
//! [`Session`] — sessions must start and finish on the same thread);
//! the HTTP connection threads answer `/metrics`, `/healthz`, `/progress`,
//! and the `/v1/*` query plane from shared [`Registry`] /
//! [`ProgressTracker`] / [`SnapshotCell`] handles, dispatched through
//! the [`Router`].  Every `--snapshot-every` batches (or on
//! `/v1/snapshot/refresh` demand) the loop freezes the streaming graph
//! into an epoch-tagged CSR snapshot for the query plane, published with
//! its component membership.  A third thread, the query plane's
//! analytics lane, ranks default top-k for each published snapshot
//! while clients ask for it (see [`crate::query`]).  Shutdown is
//! two-phase so health can be observed flipping: `begin_shutdown` marks
//! the exporter as draining (healthz goes 503) and tells the ingest loop
//! to stop; `wait` joins the loop — which finishes the session, flushing
//! any `--trace-out` sink — then stops the HTTP server and the lane.

use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use graphct_core::{VertexId, VertexLabels};
use graphct_stream::telemetry as ingest_metrics;
use graphct_stream::{Snapshot, SnapshotCell, StreamingGraph};
use graphct_trace::{render_prometheus, Histogram, JsonLinesSink, Registry, Session, Sink};
use graphct_twitter::parse::mentions;
use graphct_twitter::{generate_stream, DatasetProfile};

use crate::http::{HttpServer, Response};
use crate::progress::ProgressTracker;
use crate::query::QueryPlane;
use crate::router::Router;
use crate::watchdog::Watchdog;

/// Wall-clock nanoseconds spent rendering each `/metrics` scrape
/// (registry snapshot + Prometheus exposition + watchdog lines).
static SCRAPE_NS: Histogram = Histogram::new(
    "scrape_ns",
    "Nanoseconds to render one /metrics scrape (snapshot + exposition)",
);

/// Configuration for one serve run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Dataset profile driving the synthetic generator.
    pub profile: DatasetProfile,
    /// Generator seed; pass `p` regenerates with `seed + p` so an
    /// endless run keeps producing fresh interactions.
    pub seed: u64,
    /// Mention edges per batch.
    pub batch_size: usize,
    /// Batches to ingest; `0` = run until shutdown (SIGINT).
    pub batches: u64,
    /// Pacing: target milliseconds between batch starts (`0` = flat out).
    pub interval_ms: u64,
    /// Sliding window length in batches; edges idle for longer age out.
    pub window_batches: usize,
    /// Optional JSON-lines trace tee.
    pub trace_out: Option<PathBuf>,
    /// Watchdog deadline: if no batch completes within this many
    /// milliseconds, `/healthz` degrades to `503 stalled` until ingest
    /// resumes (`0` disables the watchdog).
    pub stall_timeout_ms: u64,
    /// Continuous-profiler sampling rate for the `/profile` endpoint
    /// (`0` disables the sampler).  Defaults to 97 Hz — prime, so the
    /// sampler cannot beat against the 200 ms watchdog heartbeat.
    pub profile_hz: u32,
    /// Freeze a query-plane snapshot every this many batches (`0`
    /// disables periodic freezes; `/v1/snapshot/refresh` still works).
    pub snapshot_every: u64,
    /// Most route handlers (queries, scrapes, probes) run at once;
    /// connections are not limited by it.
    pub query_threads: usize,
    /// Default `k` for `/v1/query/topk` when the client omits `k=`.
    pub topk: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:9898".into(),
            profile: DatasetProfile::atlflood(),
            seed: 42,
            batch_size: 64,
            batches: 0,
            interval_ms: 50,
            window_batches: 256,
            trace_out: None,
            stall_timeout_ms: 10_000,
            profile_hz: graphct_trace::profile::DEFAULT_HZ,
            snapshot_every: 8,
            query_threads: 2,
            topk: 10,
        }
    }
}

/// Final ingest totals, returned by [`ServeHandle::wait`].
#[derive(Debug, Clone, Copy, Default)]
pub struct IngestStats {
    /// Batches fully ingested.
    pub batches: u64,
    /// Mention edges processed (inserted + duplicates + self-mentions).
    pub mentions: u64,
    /// New edges inserted.
    pub edges_inserted: u64,
    /// Edges aged out of the window.
    pub edges_expired: u64,
    /// Mentions the streaming graph rejected (e.g. out-of-range ids).
    /// Rejected pairs are *not* window-tracked: an edge that was never
    /// inserted must never schedule a deletion.
    pub ingest_errors: u64,
}

/// A running serve instance.
pub struct ServeHandle {
    http: HttpServer,
    shutdown: Arc<AtomicBool>,
    draining: Arc<AtomicBool>,
    paused: Arc<AtomicBool>,
    /// Set by the ingest loop while it holds between batches for a pause.
    parked: Arc<AtomicBool>,
    snapshots: Arc<SnapshotCell>,
    plane: Arc<QueryPlane>,
    ingest: Option<JoinHandle<IngestStats>>,
    heartbeat: Option<JoinHandle<()>>,
    analytics: Option<JoinHandle<()>>,
    /// Did this serve instance issue a profiler start (to be undone on
    /// `wait`)?
    profiling: bool,
}

impl ServeHandle {
    /// The bound HTTP address.
    pub fn local_addr(&self) -> SocketAddr {
        self.http.local_addr()
    }

    /// The current query-plane snapshot — the same freeze the `/v1/*`
    /// endpoints answer from, for in-process oracle checks.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.snapshots.load()
    }

    /// Phase one of shutdown: flip `/healthz` to 503 draining and tell
    /// the ingest loop to stop after its current batch.  The HTTP
    /// endpoints keep answering until [`wait`](ServeHandle::wait).
    pub fn begin_shutdown(&self) {
        self.draining.store(true, Ordering::Relaxed);
        self.shutdown.store(true, Ordering::Relaxed);
    }

    /// Has the ingest loop exited (finished its batch budget or seen the
    /// shutdown flag)?
    pub fn ingest_finished(&self) -> bool {
        self.ingest.as_ref().is_none_or(JoinHandle::is_finished)
    }

    /// Freeze the ingest loop between batches (the watchdog keeps
    /// running, so a long enough pause trips the stall deadline), and
    /// return once it holds: no batch — and no snapshot freeze — lands
    /// after this returns, even when the batch in flight was a slow one
    /// (a corpus regeneration takes a few hundred milliseconds).  It also
    /// waits for the analytics lane to rank what it was handed, so a
    /// default top-k request then answers the frozen epoch.  `GET
    /// /pause` sets the same flag without waiting.
    pub fn pause(&self) {
        self.paused.store(true, Ordering::SeqCst);
        while !self.parked.load(Ordering::SeqCst) && !self.ingest_finished() {
            std::thread::sleep(Duration::from_millis(1));
        }
        self.plane.settle_lane();
    }

    /// Resume a paused ingest loop (`GET /resume` over HTTP).
    pub fn resume(&self) {
        self.paused.store(false, Ordering::Relaxed);
    }

    /// Phase two: join the ingest loop (drains the session and any
    /// `--trace-out` sink), then stop the HTTP server and the analytics
    /// lane (after its current ranking, dropping queued work).
    pub fn wait(mut self) -> IngestStats {
        self.begin_shutdown();
        // A paused loop would never observe the shutdown flag's batch
        // boundary; release it so drain always completes.
        self.resume();
        let stats = self
            .ingest
            .take()
            .and_then(|h| h.join().ok())
            .unwrap_or_default();
        if let Some(h) = self.heartbeat.take() {
            let _ = h.join();
        }
        self.http.stop();
        self.plane.stop_lane();
        if let Some(h) = self.analytics.take() {
            let _ = h.join();
        }
        if self.profiling {
            self.profiling = false;
            graphct_trace::profiler().stop();
        }
        stats
    }
}

/// Start serving: bind the exporter, spawn the ingest thread, return
/// immediately.
pub fn start(config: ServeConfig) -> std::io::Result<ServeHandle> {
    let registry = Arc::new(match &config.trace_out {
        Some(path) => Registry::with_inner(Arc::new(JsonLinesSink::create(path)?)),
        None => Registry::new(),
    });
    let progress = Arc::new(ProgressTracker::with_inner(
        Arc::clone(&registry) as Arc<dyn Sink>
    ));
    let shutdown = Arc::new(AtomicBool::new(false));
    let draining = Arc::new(AtomicBool::new(false));
    let paused = Arc::new(AtomicBool::new(false));
    // `0` disables the deadline: Duration::MAX staleness is unreachable.
    let timeout = if config.stall_timeout_ms == 0 {
        Duration::MAX
    } else {
        Duration::from_millis(config.stall_timeout_ms)
    };
    let watchdog = Arc::new(Watchdog::new(timeout, Instant::now()));

    let snapshots = Arc::new(SnapshotCell::new());
    let labels = Arc::new(RwLock::new(VertexLabels::new()));
    let query_plane = Arc::new(QueryPlane::new(
        Arc::clone(&snapshots),
        Arc::clone(&labels),
        config.seed,
        config.topk,
    ));

    // Legacy routes keep their pre-router wire formats byte for byte
    // (asserted by tests/query.rs); the query plane adds the versioned
    // `/v1/*` envelope on top.
    let router = {
        let metrics_registry = Arc::clone(&registry);
        let metrics_watchdog = Arc::clone(&watchdog);
        let healthz_draining = Arc::clone(&draining);
        let healthz_watchdog = Arc::clone(&watchdog);
        let progress_tracker = Arc::clone(&progress);
        let progress_draining = Arc::clone(&draining);
        let progress_watchdog = Arc::clone(&watchdog);
        let pause_flag = Arc::clone(&paused);
        let resume_flag = Arc::clone(&paused);
        let router = Router::new()
            .get("/metrics", move |_req| {
                let scrape_start = graphct_trace::enabled().then(Instant::now);
                // Publish the watchdog's float series before snapshotting
                // so the scrape sees them at wall-clock freshness.
                metrics_watchdog.tick(Instant::now()).publish();
                let body = render_prometheus(&metrics_registry.snapshot());
                if let Some(t) = scrape_start {
                    SCRAPE_NS.record_duration(t.elapsed());
                }
                Response::metrics(body)
            })
            .get("/profile", move |req| profile_response(req.query))
            .get("/healthz", move |_req| {
                if healthz_draining.load(Ordering::Relaxed) {
                    return Response::text(503, "draining\n");
                }
                let status = healthz_watchdog.tick(Instant::now());
                if status.stalled {
                    Response::text(503, status.stall_reason())
                } else {
                    Response::text(200, "ok\n")
                }
            })
            .get("/progress", move |_req| {
                let health = if progress_draining.load(Ordering::Relaxed) {
                    "draining"
                } else if progress_watchdog.tick(Instant::now()).stalled {
                    "stalled"
                } else {
                    "ok"
                };
                Response::json(progress_tracker.render_json(health))
            })
            .get("/pause", move |_req| {
                pause_flag.store(true, Ordering::Relaxed);
                Response::text(200, "paused\n")
            })
            .get("/resume", move |_req| {
                resume_flag.store(false, Ordering::Relaxed);
                Response::text(200, "resumed\n")
            });
        query_plane.routes(router)
    };
    let handler: Arc<crate::http::Handler> =
        Arc::new(move |method: &str, path: &str, query: &str| router.dispatch(method, path, query));
    let http = HttpServer::bind_pooled(&config.addr, handler, config.query_threads.max(1))?;
    let analytics = query_plane.spawn_lane()?;

    // Start (or join) the continuous profiler so `/profile` has live
    // folded stacks from the first scrape; undone in `wait`.
    let profiling = config.profile_hz > 0;
    if profiling {
        graphct_trace::profiler().start(config.profile_hz);
    }

    let parked = Arc::new(AtomicBool::new(false));
    let ingest = {
        let shutdown = Arc::clone(&shutdown);
        let draining = Arc::clone(&draining);
        let paused = Arc::clone(&paused);
        let parked = Arc::clone(&parked);
        let watchdog = Arc::clone(&watchdog);
        let snapshots = Arc::clone(&snapshots);
        let plane = Arc::clone(&query_plane);
        let labels = Arc::clone(&labels);
        std::thread::Builder::new()
            .name("graphct-obs-ingest".into())
            .spawn(move || {
                ingest_loop(
                    config, progress, shutdown, draining, paused, parked, watchdog, snapshots,
                    plane, labels,
                )
            })?
    };

    // Heartbeat: re-evaluate the deadline every 200ms so stall
    // transitions are observed (and traced) even when nobody scrapes.
    let heartbeat = {
        let shutdown = Arc::clone(&shutdown);
        let watchdog = Arc::clone(&watchdog);
        std::thread::Builder::new()
            .name("graphct-obs-watchdog".into())
            .spawn(move || {
                // Named in the profiler's thread registry so its (mostly
                // idle) samples attribute to "graphct-obs-watchdog".
                graphct_trace::register_current_thread();
                let mut was_stalled = false;
                while !shutdown.load(Ordering::Relaxed) {
                    let status = watchdog.tick(Instant::now());
                    status.publish();
                    if status.stalled != was_stalled {
                        was_stalled = status.stalled;
                        let staleness_ms = status.staleness.as_millis().min(u128::from(u64::MAX));
                        graphct_trace::event!(
                            "watchdog",
                            stalled = u64::from(status.stalled),
                            staleness_ms = staleness_ms as u64,
                        );
                    }
                    std::thread::sleep(Duration::from_millis(200));
                }
            })?
    };

    Ok(ServeHandle {
        http,
        shutdown,
        draining,
        paused,
        parked,
        snapshots,
        plane: query_plane,
        ingest: Some(ingest),
        heartbeat: Some(heartbeat),
        analytics: Some(analytics),
        profiling,
    })
}

/// Render the `/profile` endpoint: folded-stack text by default (direct
/// `flamegraph.pl`/speedscope input), `?format=json` for a structured
/// dump with a self-time table, `?format=top` for the human-readable
/// top-N self-time table.
fn profile_response(query: &str) -> Response {
    let prof = graphct_trace::profiler();
    let folded = prof.fold();
    let format = query
        .split('&')
        .find_map(|kv| kv.strip_prefix("format="))
        .unwrap_or("folded");
    match format {
        "json" => Response::json(render_profile_json(prof, &folded)),
        "top" => {
            let mut body = format!(
                "continuous profiler: {} Hz, {} samples, {} truncated\n\n{:<28} {:>10}\n",
                prof.hz(),
                prof.samples_total(),
                prof.truncated_total(),
                "frame (self, on-cpu)",
                "samples",
            );
            for (frame, count) in graphct_trace::profile::self_time_top(&folded, 20) {
                body.push_str(&format!("{frame:<28} {count:>10}\n"));
            }
            Response::text(200, body)
        }
        _ => Response::text(200, graphct_trace::profile::render_folded_counts(&folded)),
    }
}

/// Hand-rolled JSON for the `/profile?format=json` variant (the
/// workspace has no serializer dependency; names are span literals and
/// thread names, escaped defensively).
fn render_profile_json(prof: &graphct_trace::Profiler, folded: &[(String, u64)]) -> String {
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    let stacks: Vec<String> = folded
        .iter()
        .map(|(path, count)| format!("{{\"stack\":\"{}\",\"count\":{count}}}", esc(path)))
        .collect();
    let top: Vec<String> = graphct_trace::profile::self_time_top(folded, 20)
        .into_iter()
        .map(|(frame, count)| format!("{{\"frame\":\"{}\",\"count\":{count}}}", esc(&frame)))
        .collect();
    format!(
        "{{\"hz\":{},\"samples_total\":{},\"truncated_total\":{},\"stacks\":[{}],\"self\":[{}]}}",
        prof.hz(),
        prof.samples_total(),
        prof.truncated_total(),
        stacks.join(","),
        top.join(","),
    )
}

/// Expand one corpus pass into (author, mention) screen-name pairs.
fn mention_pairs(profile: &DatasetProfile, seed: u64) -> Vec<(String, String)> {
    let (tweets, _pool) = generate_stream(&profile.config, seed);
    let mut pairs = Vec::new();
    for tweet in &tweets {
        for handle in mentions(&tweet.text) {
            pairs.push((tweet.author.clone(), handle.to_owned()));
        }
    }
    pairs
}

#[allow(clippy::too_many_arguments)]
fn ingest_loop(
    cfg: ServeConfig,
    sink: Arc<ProgressTracker>,
    shutdown: Arc<AtomicBool>,
    draining: Arc<AtomicBool>,
    paused: Arc<AtomicBool>,
    parked: Arc<AtomicBool>,
    watchdog: Arc<Watchdog>,
    snapshots: Arc<SnapshotCell>,
    plane: Arc<QueryPlane>,
    labels: Arc<RwLock<VertexLabels>>,
) -> IngestStats {
    let session = Session::start(sink as Arc<dyn Sink>);
    ingest_metrics::register_ingest_metrics();
    crate::query::register_query_metrics();
    crate::http::register_http_metrics();
    SCRAPE_NS.touch();

    let mut graph = StreamingGraph::new(0);
    // Sliding window bookkeeping: every edge mention lands in the batch
    // that saw it; an edge is deleted when the last batch that mentioned
    // it ages out (LRU semantics over batches).
    let mut last_seen: HashMap<(VertexId, VertexId), u64> = HashMap::new();
    let mut window: VecDeque<(u64, Vec<(VertexId, VertexId)>)> = VecDeque::new();

    let mut pass = 0u64;
    let mut corpus = mention_pairs(&cfg.profile, cfg.seed);
    let mut cursor = 0usize;
    let start = Instant::now();
    let mut stats = IngestStats::default();

    while !shutdown.load(Ordering::Relaxed) && (cfg.batches == 0 || stats.batches < cfg.batches) {
        // Stall injection / operator freeze: hold between batches while
        // paused.  The watermark stops advancing, so the watchdog trips
        // once the pause outlives the deadline.
        loop {
            while paused.load(Ordering::SeqCst) && !shutdown.load(Ordering::SeqCst) {
                parked.store(true, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(5));
            }
            parked.store(false, Ordering::SeqCst);
            // A `ServeHandle::pause` that still saw `parked` has returned
            // promising no further batch: re-check before running one.
            if !paused.load(Ordering::SeqCst) || shutdown.load(Ordering::SeqCst) {
                break;
            }
        }
        if shutdown.load(Ordering::Relaxed) {
            break;
        }
        let batch = stats.batches;
        // Pacing: batch `i` starts no earlier than `i * interval`.
        if cfg.interval_ms > 0 {
            let scheduled = Duration::from_millis(cfg.interval_ms.saturating_mul(batch));
            let elapsed = start.elapsed();
            if elapsed < scheduled {
                std::thread::sleep(scheduled - elapsed);
            }
        }
        let batch_start = Instant::now();
        let _span = graphct_trace::span!("ingest_batch", batch = batch);

        let mut inserted = 0u64;
        let mut duplicates = 0u64;
        let mut errors = 0u64;
        let mut processed = 0u64;
        let mut batch_edges: Vec<(VertexId, VertexId)> = Vec::with_capacity(cfg.batch_size);
        for _ in 0..cfg.batch_size {
            if cursor >= corpus.len() {
                pass += 1;
                cursor = 0;
                corpus = mention_pairs(&cfg.profile, cfg.seed.wrapping_add(pass));
                if corpus.is_empty() {
                    break;
                }
            }
            let (author, mention) = &corpus[cursor];
            cursor += 1;
            processed += 1;
            // The directory is shared with the query plane (readers
            // resolve `?user=` names); hold the write lock only for the
            // two interns.
            let (u, v, interned) = {
                let mut directory = labels.write().expect("labels poisoned");
                (
                    directory.intern(author),
                    directory.intern(mention),
                    directory.len(),
                )
            };
            if u == v {
                continue; // self-mention; the streaming graph is simple
            }
            graph.ensure_vertices(interned);
            // Only mentions the graph actually accepted (fresh insert or
            // live duplicate) enter the sliding window: tracking a
            // rejected pair would later schedule a delete_edge for an
            // edge that never existed.
            match graph.insert_edge(u, v) {
                Ok(true) => inserted += 1,
                Ok(false) => duplicates += 1,
                Err(_) => {
                    errors += 1;
                    continue;
                }
            }
            let key = (u.min(v), u.max(v));
            last_seen.insert(key, batch);
            batch_edges.push(key);
        }

        window.push_back((batch, batch_edges));
        while window.len() > cfg.window_batches.max(1) {
            let (aged, edges) = window.pop_front().expect("window is non-empty");
            for key in edges {
                if last_seen.get(&key) == Some(&aged) {
                    if graph.delete_edge(key.0, key.1).unwrap_or(false) {
                        stats.edges_expired += 1;
                        ingest_metrics::INGEST_EDGES_EXPIRED.incr();
                    }
                    last_seen.remove(&key);
                }
            }
        }

        stats.batches += 1;
        stats.mentions += processed;
        stats.edges_inserted += inserted;
        stats.ingest_errors += errors;

        ingest_metrics::INGEST_BATCHES.incr();
        ingest_metrics::INGEST_MENTIONS.add(processed);
        ingest_metrics::INGEST_EDGES_INSERTED.add(inserted);
        ingest_metrics::INGEST_DUPLICATES.add(duplicates);
        ingest_metrics::INGEST_ERRORS.add(errors);
        ingest_metrics::INGEST_WATERMARK_BATCH.set(stats.batches);
        let batch_elapsed = batch_start.elapsed();
        ingest_metrics::INGEST_BATCH_NS.record_duration(batch_elapsed);
        let batch_secs = batch_elapsed.as_secs_f64();
        if batch_secs > 0.0 {
            ingest_metrics::INGEST_EDGES_PER_SEC.set((processed as f64 / batch_secs) as u64);
        }
        let lag_us = if cfg.interval_ms > 0 {
            let scheduled = Duration::from_millis(cfg.interval_ms.saturating_mul(batch));
            start
                .elapsed()
                .saturating_sub(scheduled)
                .as_micros()
                .min(u128::from(u64::MAX)) as u64
        } else {
            0
        };
        ingest_metrics::INGEST_LAG_US.set(lag_us);
        ingest_metrics::WINDOW_VERTICES.set(graph.num_active_vertices() as u64);
        ingest_metrics::WINDOW_EDGES.set(graph.num_edges() as u64);

        graphct_trace::event!(
            "ingest_batch",
            batch = stats.batches,
            total = cfg.batches,
            mentions = processed,
            inserted = inserted,
            window_edges = graph.num_edges(),
            lag_us = lag_us,
        );
        watchdog.note_batch(Instant::now());

        // Query-plane freeze: every --snapshot-every batches, or sooner
        // when a client asked via /v1/snapshot/refresh.  The freeze sits
        // at the batch boundary, so a snapshot always reflects whole
        // batches (its watermark is exact).  The window's component
        // gauge is read off the membership the freeze publishes, so it
        // holds as of the latest freeze.  The analytics lane hears of
        // each freeze here.
        let periodic_due = cfg.snapshot_every > 0 && stats.batches % cfg.snapshot_every == 0;
        if periodic_due || snapshots.take_refresh_request() {
            let freeze_start = Instant::now();
            let frozen = graph.snapshot();
            let (vertices, edges) = (frozen.num_vertices(), frozen.num_edges());
            let epoch = snapshots.publish(frozen, stats.batches);
            let published = snapshots.load();
            let components = published.membership.active_components();
            plane.published(published);
            ingest_metrics::SNAPSHOT_REFRESH_NS.record_duration(freeze_start.elapsed());
            ingest_metrics::SNAPSHOT_EPOCH.set(epoch);
            ingest_metrics::WINDOW_COMPONENTS.set(components as u64);
            graphct_trace::event!(
                "snapshot_freeze",
                epoch = epoch,
                batch = stats.batches,
                vertices = vertices,
                edges = edges,
            );
        }
    }

    // Drain: flip health first so scrapes observe the transition, then
    // finish the session (flushes the JSONL tee, reports final totals).
    draining.store(true, Ordering::Relaxed);
    session.finish();
    stats
}

/// SIGINT flag for `graphct serve` (set by the installed handler, polled
/// by the CLI's wait loop).
static SIGINT: AtomicBool = AtomicBool::new(false);

/// Install a SIGINT handler that records the signal in a flag instead of
/// killing the process, so serve can drain sinks before exiting.  No-op
/// off Unix.
pub fn install_sigint_handler() {
    #[cfg(unix)]
    {
        extern "C" fn on_sigint(_sig: i32) {
            SIGINT.store(true, Ordering::Relaxed);
        }
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT_NUM: i32 = 2;
        unsafe {
            signal(SIGINT_NUM, on_sigint as extern "C" fn(i32) as usize);
        }
    }
}

/// Has SIGINT been received since [`install_sigint_handler`]?
pub fn sigint_received() -> bool {
    SIGINT.load(Ordering::Relaxed)
}
