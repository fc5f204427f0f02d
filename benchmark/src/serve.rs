//! The two workloads on the live query service: `serve_query` (reads
//! over lightly paced writes) and `serve_ingest` (unpaced writes with a
//! side load of reads).  The server runs in this process through
//! `graphct_obs::start`; the load generator is in `loadgen`.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use graphct::kernels::betweenness::select_sources;
use graphct::obs::{bc_seed, query_bc_config, start, ServeConfig, ServeHandle};
use graphct::prelude::*;
use graphct::trace::json::{self, Json};

use crate::common::{cpu_seconds, probe_setups, zipf_rank, Checks, Measured, Rng, RunArgs};
use crate::layers;
use crate::loadgen::{closed_loop, open_loop, schedule, Client, Reply, Timed};
use crate::oracle;
use crate::span::Tracer;
use crate::stats::{percentile, Summary};

/// Latency limits: a reply later than this did not serve its user and
/// counts as failed.  (Not the 20 ms and 250 ms first proposed: those lie
/// inside today's latency distribution — up to 2.4 % of requests would
/// fail, 1 to 75 of them from one run to the next.)
const POINT_LIMIT: Duration = Duration::from_millis(250);
const TOPK_LIMIT: Duration = Duration::from_millis(1000);

/// Open-loop rates of `serve_query`, requests per second.
const POINT_RATE: f64 = 160.0;
const TOPK_RATE: f64 = 8.0;
/// Open-loop point rate beside the unpaced ingest of `serve_ingest`.
const INGEST_POINT_RATE: f64 = 50.0;
/// `serve_query` spends this share of `--seconds` in its open loop and
/// the rest in the closed loop that measures capacity.
const OPEN_SHARE: f64 = 0.8;

/// Each closed-loop client sends its next request this long after the
/// previous reply.  Sent back to back, two clients against the server's
/// 5 ms accept poll fall into one of two regimes for a whole run — lock
/// step with the poll (370 replies/s) or not (around 1 000) — and which
/// one is chance; any pause longer than the accept thread stays awake
/// leaves only the first.
const CLOSED_THINK: Duration = Duration::from_millis(1);

const TOPK_PATH: &str = "/v1/query/topk?k=10&samples=16";
const TOPK_K: usize = 10;
const TOPK_SAMPLES: usize = 16;

/// Request classes.  The four point kinds are sent in equal shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Degree,
    Component,
    Ego,
    Snapshot,
    Topk,
}

const POINT_KINDS: [Kind; 4] = [Kind::Degree, Kind::Component, Kind::Ego, Kind::Snapshot];

impl Kind {
    fn path(self, vertex: usize) -> String {
        match self {
            Kind::Degree => format!("/v1/query/degree?vertex={vertex}"),
            Kind::Component => format!("/v1/query/component?vertex={vertex}"),
            Kind::Ego => format!("/v1/query/ego?vertex={vertex}"),
            Kind::Snapshot => "/v1/snapshot".to_owned(),
            Kind::Topk => TOPK_PATH.to_owned(),
        }
    }

    /// A member every well-formed `data` object of this kind has.
    fn data_key(self) -> &'static str {
        match self {
            Kind::Degree => "\"reach\":",
            Kind::Component => "\"size\":",
            Kind::Ego => "\"members\":",
            Kind::Snapshot => "\"watermark_batch\":",
            Kind::Topk => "\"top\":",
        }
    }

    fn limit(self) -> Duration {
        if self == Kind::Topk {
            TOPK_LIMIT
        } else {
            POINT_LIMIT
        }
    }

    /// Does answering need the epoch's component membership?  The first
    /// such query of an epoch computes it (a few milliseconds on these
    /// graphs); the other kinds never wait for it.
    fn needs_membership(self) -> bool {
        matches!(self, Kind::Degree | Kind::Component)
    }
}

/// What the client saw of one request.
#[derive(Debug)]
struct Seen {
    kind: Kind,
    epoch: u64,
    staleness_ms: f64,
    connect: Option<Duration>,
    ttfb: Duration,
    /// `None` for a 2xx reply with a well-formed envelope of the right
    /// kind; otherwise what was wrong.
    error: Option<String>,
}

impl Seen {
    fn ok(&self) -> bool {
        self.error.is_none()
    }
}

/// The number after `"key":` in a JSON text, without parsing the rest
/// (ego replies run to hundreds of kilobytes; the generator shares two
/// cores with the server it loads).
fn number_after(body: &str, key: &str) -> Option<f64> {
    let rest = body[body.find(key)? + key.len()..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | 'E' | '+')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn inspect(kind: Kind, reply: std::io::Result<Reply>) -> Seen {
    let mut seen = Seen {
        kind,
        epoch: 0,
        staleness_ms: 0.0,
        connect: None,
        ttfb: Duration::ZERO,
        error: None,
    };
    match reply {
        Err(e) => seen.error = Some(format!("{kind:?}: {e}")),
        Ok(reply) => {
            seen.connect = reply.connect;
            seen.ttfb = reply.ttfb;
            let body = &reply.body;
            let envelope = (
                number_after(body, "\"v\":"),
                number_after(body, "\"epoch\":"),
                number_after(body, "\"staleness_s\":"),
            );
            match envelope {
                (Some(v), Some(epoch), Some(staleness))
                    if reply.status == 200
                        && v == 1.0
                        && body.contains("\"data\":")
                        && body.contains(kind.data_key()) =>
                {
                    seen.epoch = epoch as u64;
                    seen.staleness_ms = staleness * 1e3;
                }
                _ => {
                    let shown: String = body.chars().take(120).collect();
                    seen.error = Some(format!("{kind:?}: status {} body {shown}", reply.status));
                }
            }
        }
    }
    seen
}

/// One connection's open-loop schedule: when, what kind, and the Zipf
/// draw that picks the vertex once the live id range is known.
struct Schedule {
    offsets: Vec<Duration>,
    kinds: Vec<Kind>,
    draws: Vec<f64>,
}

impl Schedule {
    /// `rate` requests per second for `seconds`, each at a seeded random
    /// moment of its interval, kinds cycling through `kinds` from a
    /// seeded start, vertices drawn from `rng`.
    fn new(rate: f64, seconds: f64, kinds: &[Kind], rng: &mut Rng) -> Schedule {
        let offsets = schedule(rate, seconds, || rng.unit());
        let first = rng.below(kinds.len());
        Schedule {
            kinds: (0..offsets.len())
                .map(|i| kinds[(first + i) % kinds.len()])
                .collect(),
            draws: (0..offsets.len()).map(|_| rng.unit()).collect(),
            offsets,
        }
    }
}

fn live_vertices(handle: &ServeHandle) -> usize {
    handle.snapshot().graph.num_vertices()
}

/// Run one connection's schedule against the server.
fn run_schedule(
    handle: &ServeHandle,
    client: &mut Client,
    start: Instant,
    schedule: &Schedule,
) -> Vec<Timed<Seen>> {
    open_loop(start, &schedule.offsets, |i| {
        let kind = schedule.kinds[i];
        let path = kind.path(zipf_rank(schedule.draws[i], live_vertices(handle)));
        inspect(kind, client.get(&path))
    })
}

struct Sizing {
    profile_scale: f64,
    /// Sliding window, in batches of 512 mentions.
    window_batches: usize,
    /// Set-ups timed per run.  A set-up is short (0.15 – 0.3 s) and its
    /// time swings with how warm the machine is, so the median is over
    /// more of them than the offline workloads take.
    setups: usize,
}

impl Sizing {
    fn of(args: &RunArgs) -> Sizing {
        if args.quick {
            Sizing {
                profile_scale: 0.05,
                window_batches: 32,
                setups: 1,
            }
        } else {
            Sizing {
                profile_scale: 0.2,
                window_batches: 128,
                setups: 5,
            }
        }
    }
}

/// The server both workloads start; they differ in pacing and in how
/// often a snapshot is frozen.
fn config(args: &RunArgs) -> ServeConfig {
    let (interval_ms, snapshot_every) = match args.workload.as_str() {
        "serve_query" => (20, 8),
        _ => (0, 4),
    };
    let sizing = Sizing::of(args);
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        profile: DatasetProfile::sep1().scaled(sizing.profile_scale),
        seed: args.seed,
        batch_size: 512,
        batches: 0,
        interval_ms,
        window_batches: sizing.window_batches,
        snapshot_every,
        query_threads: 2,
        ..ServeConfig::default()
    }
}

/// Set-up of both serve workloads: start the server and wait until its
/// first non-empty snapshot can be queried.  Timed.
fn start_timed(cfg: &ServeConfig) -> (ServeHandle, f64) {
    let begun = Instant::now();
    let handle = start(cfg.clone()).expect("start the server");
    while handle.snapshot().epoch == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    (handle, begun.elapsed().as_secs_f64())
}

/// One timed set-up for `bench setup-probe`.
pub fn setup_probe(args: &RunArgs) -> f64 {
    let (handle, seconds) = start_timed(&config(args));
    handle.wait();
    seconds
}

/// Time the set-up (here once, the other times in child processes), keep
/// this process's server running, and let its sliding window fill
/// before anything is measured.
fn set_up(args: &RunArgs, cfg: &ServeConfig) -> (ServeHandle, Vec<f64>) {
    let mut setup_s = probe_setups(args, Sizing::of(args).setups - 1);
    let (handle, seconds) = start_timed(cfg);
    setup_s.push(seconds);
    while handle.snapshot().watermark_batch < cfg.window_batches as u64 {
        std::thread::sleep(Duration::from_millis(5));
    }
    (handle, setup_s)
}

/// Counters and histogram sums scraped from `/metrics`.
struct Scrape {
    mentions: f64,
    batch_ns_sum: f64,
    batch_ns_count: f64,
    refresh_ns_sum: f64,
    refresh_ns_count: f64,
}

fn scrape(addr: SocketAddr, checks: &mut Checks) -> Scrape {
    let reply = Client::new(addr).get("/metrics");
    let body = match reply {
        Ok(reply) if reply.status == 200 => reply.body,
        other => {
            checks.check(|| format!("/metrics scrape failed: {other:?}"), false);
            String::new()
        }
    };
    let value = |name: &str| {
        body.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
            .unwrap_or(0.0)
    };
    Scrape {
        mentions: value("graphct_ingest_mentions_total"),
        batch_ns_sum: value("graphct_ingest_batch_ns_sum"),
        batch_ns_count: value("graphct_ingest_batch_ns_count"),
        refresh_ns_sum: value("graphct_snapshot_refresh_ns_sum"),
        refresh_ns_count: value("graphct_snapshot_refresh_ns_count"),
    }
}

fn mean_us(sum_ns: f64, count: f64) -> f64 {
    if count > 0.0 {
        sum_ns / count / 1e3
    } else {
        0.0
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Count every request as an attempted operation: wrong unless its
/// reply was well-formed, failed also when it came after its limit.
fn tally(requests: &[Timed<Seen>], checks: &mut Checks) {
    for r in requests {
        match &r.out.error {
            Some(error) => checks.check(|| error.clone(), false),
            None => checks.check_in_time(
                || format!("{:?}: late, {:.1} ms", r.out.kind, ms(r.latency())),
                r.latency() > r.out.kind.limit(),
            ),
        }
    }
}

/// Latencies in milliseconds of the requests `pick` selects.
fn latencies_ms(requests: &[Timed<Seen>], pick: impl Fn(Kind) -> bool) -> Vec<f64> {
    requests
        .iter()
        .filter(|r| pick(r.out.kind))
        .map(|r| ms(r.latency()))
        .collect()
}

/// Everything the two workloads share once their open-loop requests are
/// in: tally failures, note each kind's latencies, record spans, fill
/// the client-side layer metrics.
fn account(
    requests: &[Timed<Seen>],
    clients: &[&Client],
    tracer: &Tracer,
    checks: &mut Checks,
    l: &mut layers::Layers,
    notes: &mut Vec<(String, String)>,
) {
    tally(requests, checks);
    for kind in POINT_KINDS.into_iter().chain([Kind::Topk]) {
        let of_kind = latencies_ms(requests, |k| k == kind);
        if !of_kind.is_empty() {
            let s = Summary::of(&of_kind);
            notes.push((
                format!("latency_ms {kind:?}"),
                format!(
                    "n={} p50={:.3} p{}={:.3} max={:.3}",
                    s.n,
                    s.median,
                    s.tail_pct,
                    s.tail,
                    of_kind.iter().copied().fold(0.0, f64::max)
                ),
            ));
        }
    }
    if !tracer.enabled() {
        return;
    }
    for (id, r) in requests.iter().enumerate() {
        let id = id as u64;
        let span = tracer.record("request", id, r.intended, r.done, None);
        tracer.record("generator.lag", id, r.intended, r.sent, span);
        if let Some(connect) = r.out.connect {
            tracer.record("obs.connect", id, r.sent, r.sent + connect, span);
        }
        let written = r.sent + r.out.connect.unwrap_or_default();
        tracer.record("obs.first_byte", id, written, written + r.out.ttfb, span);
    }
    let of = |pick: &dyn Fn(&Timed<Seen>) -> Option<f64>| -> Vec<f64> {
        let mut values: Vec<f64> = requests.iter().filter_map(pick).collect();
        values.sort_by(f64::total_cmp);
        values
    };
    let point_ms = latencies_ms(requests, |k| k != Kind::Topk);
    if !point_ms.is_empty() {
        let s = Summary::of(&point_ms);
        l.insert("client.point_p50_ms", s.median);
        l.insert("client.point_tail_ms", s.tail);
        notes.push(("point_tail_read_at".into(), format!("p{}", s.tail_pct)));
    }
    let topk_ms = latencies_ms(requests, |k| k == Kind::Topk);
    if !topk_ms.is_empty() {
        let s = Summary::of(&topk_ms);
        l.insert("client.topk_p50_ms", s.median);
        l.insert("client.topk_tail_ms", s.tail);
        notes.push(("topk_tail_read_at".into(), format!("p{}", s.tail_pct)));
    }
    let connect_us = of(&|r| r.out.connect.map(|c| ms(c) * 1e3));
    if !connect_us.is_empty() {
        l.insert("obs.connect_us", percentile(&connect_us, 50.0));
    }
    let ttfb_us = of(&|r| (r.out.kind != Kind::Topk).then(|| ms(r.out.ttfb) * 1e3));
    if !ttfb_us.is_empty() {
        l.insert("obs.ttfb_us", percentile(&ttfb_us, 50.0));
    }
    let (connects, reused) = clients.iter().fold((0, 0), |(c, r), client| {
        (c + client.connects, r + client.reused)
    });
    l.insert(
        "obs.conn_reuse_ratio",
        reused as f64 / (connects + reused).max(1) as f64,
    );
    let staleness = of(&|r| r.out.ok().then_some(r.out.staleness_ms));
    if !staleness.is_empty() {
        l.insert("obs.staleness_p50_ms", percentile(&staleness, 50.0));
    }
    let lag_us = of(&|r| Some(ms(r.lag()) * 1e3));
    if !lag_us.is_empty() {
        l.insert("obs.generator_lag_p99_us", percentile(&lag_us, 99.0));
    }
}

/// Share of replies whose epoch differs from the previous reply on the
/// same connection: how often a request meets a freshly frozen graph
/// (and pays the per-epoch recompute).
fn epoch_change_ratio(connections: &[&[Timed<Seen>]]) -> f64 {
    let (mut changes, mut pairs) = (0usize, 0usize);
    for connection in connections {
        let epochs: Vec<u64> = connection
            .iter()
            .filter(|r| r.out.ok())
            .map(|r| r.out.epoch)
            .collect();
        pairs += epochs.len().saturating_sub(1);
        changes += epochs.windows(2).filter(|w| w[0] != w[1]).count();
    }
    changes as f64 / pairs.max(1) as f64
}

/// Pause ingest, wait for the epoch to settle, and compare what the
/// service answers with the benchmark's own oracles on that snapshot.
/// Ingest stays paused (the direct-call layer timings that follow want a
/// quiet machine); `ServeHandle::wait` releases it to drain.
fn check_against_oracles(handle: &ServeHandle, seed: u64, checks: &mut Checks) {
    let addr = handle.local_addr();
    let mut client = Client::new(addr);
    let get = |client: &mut Client, path: &str| -> Option<(u64, Json)> {
        let reply = client.get(path).ok()?;
        let parsed = json::parse(&reply.body).ok()?;
        if reply.status != 200 || parsed.get("v").and_then(Json::as_u64) != Some(1) {
            return None;
        }
        let epoch = parsed.get("epoch").and_then(Json::as_u64)?;
        Some((epoch, parsed.get("data")?.clone()))
    };
    handle.pause();
    let mut snap = handle.snapshot();
    loop {
        std::thread::sleep(Duration::from_millis(60));
        let again = handle.snapshot();
        if again.epoch == snap.epoch {
            break;
        }
        snap = again;
    }
    let graph = &*snap.graph;
    let n = graph.num_vertices();

    let served = get(&mut client, TOPK_PATH).filter(|(epoch, _)| *epoch == snap.epoch);
    let ranked: Option<Vec<(VertexId, f64)>> = served.as_ref().and_then(|(_, data)| {
        data.get("top")?
            .as_arr()?
            .iter()
            .map(|e| {
                Some((
                    e.get("vertex")?.as_u64()? as VertexId,
                    e.get("score")?.as_f64()?,
                ))
            })
            .collect()
    });
    let bc_config = query_bc_config(TOPK_SAMPLES.min(n), bc_seed(seed, snap.epoch));
    let reference = oracle::betweenness(graph, &select_sources(graph, &bc_config.sampling));
    checks.check(
        || {
            format!(
                "served top-k differs from Brandes on epoch {}: {ranked:?}",
                snap.epoch
            )
        },
        ranked
            .as_ref()
            .is_some_and(|r| oracle::top_k_agrees(r, &reference, TOPK_K)),
    );

    let colors = oracle::components(graph);
    let mut sizes = vec![0u64; n];
    colors.iter().for_each(|&c| sizes[c as usize] += 1);
    let mut rng = Rng::new(seed, 9);
    for _ in 0..6 {
        let v = zipf_rank(rng.unit(), n);
        let size = sizes[colors[v] as usize];
        let component = get(&mut client, &Kind::Component.path(v));
        checks.check(
            || format!("component of {v} differs from union-find: {component:?}"),
            component.as_ref().is_some_and(|(_, d)| {
                d.get("component").and_then(Json::as_u64) == Some(u64::from(colors[v]))
                    && d.get("size").and_then(Json::as_u64) == Some(size)
            }),
        );
        let degree = get(&mut client, &Kind::Degree.path(v));
        checks.check(
            || format!("degree of {v} differs from the snapshot: {degree:?}"),
            degree.as_ref().is_some_and(|(_, d)| {
                d.get("degree").and_then(Json::as_u64) == Some(graph.degree(v as VertexId) as u64)
                    && d.get("reach").and_then(Json::as_u64) == Some(size - 1)
            }),
        );
    }
}

pub fn serve_query(args: &RunArgs, tracer: &Tracer, checks: &mut Checks) -> Measured {
    let cfg = config(args);
    let (handle, setup_s) = set_up(args, &cfg);
    let addr = handle.local_addr();
    let mut l = layers::Layers::new();
    let before = scrape(addr, checks);

    // Phase A, open loop on three connections: point queries alternate
    // between two (so one slow reply delays half of what follows it, not
    // all), top-k has its own (so a 40 ms top-k never sits in front of a
    // point query on the generator's side — any queueing seen is the
    // server's).
    let open_s = args.seconds * OPEN_SHARE;
    let schedules = [
        Schedule::new(
            POINT_RATE / 2.0,
            open_s,
            &POINT_KINDS,
            &mut Rng::new(args.seed, 3),
        ),
        Schedule::new(
            POINT_RATE / 2.0,
            open_s,
            &POINT_KINDS,
            &mut Rng::new(args.seed, 4),
        ),
        Schedule::new(
            TOPK_RATE,
            open_s,
            &[Kind::Topk],
            &mut Rng::new(args.seed, 5),
        ),
    ];
    let mut clients = [Client::new(addr), Client::new(addr), Client::new(addr)];
    let cpu_before = cpu_seconds();
    let phase = Instant::now();
    let per_connection: Vec<Vec<Timed<Seen>>> = std::thread::scope(|scope| {
        let senders: Vec<_> = clients
            .iter_mut()
            .zip(&schedules)
            .map(|(client, schedule)| {
                let handle = &handle;
                scope.spawn(move || run_schedule(handle, client, phase, schedule))
            })
            .collect();
        senders
            .into_iter()
            .map(|s| s.join().expect("open-loop sender panicked"))
            .collect()
    });
    let cpu_s = cpu_seconds() - cpu_before;
    let open_s = phase.elapsed().as_secs_f64();
    let after = scrape(addr, checks);
    let connections: Vec<&[Timed<Seen>]> = per_connection.iter().map(Vec::as_slice).collect();
    let epoch_changes = epoch_change_ratio(&connections);
    let requests: Vec<Timed<Seen>> = per_connection.into_iter().flatten().collect();
    let mut notes = vec![
        (
            "open_loop".into(),
            format!(
                "{open_s:.1}s, {POINT_RATE} point/s on 2 connections + {TOPK_RATE} topk/s on 1"
            ),
        ),
        (
            "limits".into(),
            format!(
                "point {} ms, topk {} ms",
                POINT_LIMIT.as_millis(),
                TOPK_LIMIT.as_millis()
            ),
        ),
        ("cpu_s".into(), format!("{cpu_s:.2}")),
        ("live_vertices".into(), live_vertices(&handle).to_string()),
        ("epoch".into(), handle.snapshot().epoch.to_string()),
    ];
    account(
        &requests,
        &clients.each_ref(),
        tracer,
        checks,
        &mut l,
        &mut notes,
    );

    // Phase B, closed loop: two clients, each sending its next point
    // query `CLOSED_THINK` after its previous reply; capacity is the
    // replies per second that arrive inside the limit.
    let closed_s = args.seconds - args.seconds * OPEN_SHARE;
    let until = Instant::now() + Duration::from_secs_f64(closed_s);
    let mut clients = [Client::new(addr), Client::new(addr)];
    let closed: Vec<Timed<Seen>> = std::thread::scope(|scope| {
        let senders: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let handle = &handle;
                let mut rng = Rng::new(args.seed, 6 + c as u64);
                scope.spawn(move || {
                    closed_loop(until, |i| {
                        std::thread::sleep(CLOSED_THINK);
                        let kind = POINT_KINDS[i % POINT_KINDS.len()];
                        let path = kind.path(zipf_rank(rng.unit(), live_vertices(handle)));
                        inspect(kind, client.get(&path))
                    })
                })
            })
            .collect();
        senders
            .into_iter()
            .flat_map(|s| s.join().expect("closed-loop sender panicked"))
            .collect()
    });
    tally(&closed, checks);
    let in_time = closed
        .iter()
        .filter(|r| r.out.ok() && r.latency() <= POINT_LIMIT)
        .count();
    let saturation_qps = in_time as f64 / closed_s;
    notes.push((
        "closed_loop".into(),
        format!(
            "{closed_s:.1}s, 2 clients, {} ms think time, {} requests",
            CLOSED_THINK.as_millis(),
            closed.len()
        ),
    ));

    check_against_oracles(&handle, args.seed, checks);
    if tracer.enabled() {
        let answered = requests.iter().filter(|r| r.out.ok()).count();
        l.insert(
            "client.replies_per_cpu_s",
            answered as f64 / cpu_s.max(0.01),
        );
        l.insert("client.saturation_qps", saturation_qps);
        l.insert("obs.epoch_change_ratio", epoch_changes);
        server_side_layers(&before, &after, open_s, &mut l);
        dispatch_layers(&handle, args.seed, &mut l);
    }
    handle.wait();
    Measured {
        setup_s,
        light_ms: latencies_ms(&requests, |k| k != Kind::Topk),
        heavy_ms: latencies_ms(&requests, |k| k == Kind::Topk),
        throughput_per_s: saturation_qps,
        layers: l,
        notes,
    }
}

/// Layer numbers from the server's own `/metrics`, as deltas over the
/// measured phase.
fn server_side_layers(before: &Scrape, after: &Scrape, elapsed_s: f64, l: &mut layers::Layers) {
    l.insert(
        "obs.ingest_batch_us",
        mean_us(
            after.batch_ns_sum - before.batch_ns_sum,
            after.batch_ns_count - before.batch_ns_count,
        ),
    );
    l.insert(
        "obs.snapshot_refresh_us",
        mean_us(
            after.refresh_ns_sum - before.refresh_ns_sum,
            after.refresh_ns_count - before.refresh_ns_count,
        ),
    );
    l.insert(
        "obs.ingest_mentions_per_s",
        (after.mentions - before.mentions) / elapsed_s,
    );
}

/// In-process dispatch on the live run's last snapshot, and from it the
/// share of a point query's latency that is not the handler.
fn dispatch_layers(handle: &ServeHandle, seed: u64, l: &mut layers::Layers) {
    layers::obs_dispatch(&handle.snapshot().graph, seed, l);
    let hit_us = l.get("obs.dispatch_point_hit_us").copied().unwrap_or(0.0);
    let point_p50_us = l.get("client.point_p50_ms").copied().unwrap_or(0.0) * 1e3;
    l.insert("obs.transport_us", (point_p50_us - hit_us).max(0.0));
}

pub fn serve_ingest(args: &RunArgs, tracer: &Tracer, checks: &mut Checks) -> Measured {
    let cfg = config(args);
    let (handle, setup_s) = set_up(args, &cfg);
    let addr = handle.local_addr();
    let mut l = layers::Layers::new();

    let points = Schedule::new(
        INGEST_POINT_RATE,
        args.seconds,
        &POINT_KINDS,
        &mut Rng::new(args.seed, 4),
    );
    let mut client = Client::new(addr);
    let before = scrape(addr, checks);
    let phase = Instant::now();
    let requests = run_schedule(&handle, &mut client, phase, &points);
    std::thread::sleep(Duration::from_secs_f64(args.seconds).saturating_sub(phase.elapsed()));
    let after = scrape(addr, checks);
    let elapsed_s = phase.elapsed().as_secs_f64();

    let mut notes = vec![
        (
            "open_loop".into(),
            format!("{elapsed_s:.1}s, {INGEST_POINT_RATE} point/s on 1 connection"),
        ),
        (
            "limits".into(),
            format!("point {} ms", POINT_LIMIT.as_millis()),
        ),
        ("live_vertices".into(), live_vertices(&handle).to_string()),
        ("epoch".into(), handle.snapshot().epoch.to_string()),
    ];
    let epoch_changes = epoch_change_ratio(&[&requests]);
    account(&requests, &[&client], tracer, checks, &mut l, &mut notes);
    check_against_oracles(&handle, args.seed, checks);
    if tracer.enabled() {
        l.insert("obs.epoch_change_ratio", epoch_changes);
        server_side_layers(&before, &after, elapsed_s, &mut l);
        dispatch_layers(&handle, args.seed, &mut l);
        layers::stream_direct(&cfg.profile, args.seed, &mut l);
    }
    let stats = handle.wait();
    checks.check(
        || format!("ingest rejected {} mentions", stats.ingest_errors),
        stats.ingest_errors == 0,
    );
    // Epochs turn over every few milliseconds here, so nearly every
    // query that needs the epoch's component membership recomputes it;
    // the kinds that do not never wait for it.  Two classes, two rows:
    // together their median would sit in the gap between the two modes.
    Measured {
        setup_s,
        light_ms: latencies_ms(&requests, |k| !k.needs_membership()),
        heavy_ms: latencies_ms(&requests, Kind::needs_membership),
        throughput_per_s: (after.mentions - before.mentions) / elapsed_s,
        layers: l,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_numbers_out_of_an_envelope_without_parsing_it() {
        let body =
            r#"{"v":1,"epoch":12,"staleness_s":0.041,"data":{"vertex":3,"degree":2,"reach":7}}"#;
        assert_eq!(number_after(body, "\"epoch\":"), Some(12.0));
        assert_eq!(number_after(body, "\"staleness_s\":"), Some(0.041));
        assert_eq!(number_after(body, "\"reach\":"), Some(7.0));
        assert_eq!(number_after(body, "\"missing\":"), None);
        assert_eq!(number_after(r#"{"epoch": 5 }"#, "\"epoch\":"), Some(5.0));
    }

    fn reply(status: u16, body: &str) -> std::io::Result<Reply> {
        Ok(Reply {
            status,
            body: body.to_owned(),
            connect: None,
            ttfb: Duration::ZERO,
        })
    }

    #[test]
    fn only_a_2xx_envelope_of_the_right_kind_is_ok() {
        let good =
            r#"{"v":1,"epoch":3,"staleness_s":0.5,"data":{"vertex":1,"degree":2,"reach":7}}"#;
        let seen = inspect(Kind::Degree, reply(200, good));
        assert!(seen.ok() && seen.epoch == 3 && seen.staleness_ms == 500.0);
        assert!(
            !inspect(Kind::Component, reply(200, good)).ok(),
            "wrong kind"
        );
        let error = r#"{"v":1,"epoch":3,"staleness_s":0.5,"error":"no such vertex"}"#;
        assert!(!inspect(Kind::Degree, reply(404, error)).ok());
        assert!(!inspect(Kind::Degree, reply(200, "ok\n")).ok());
        let failed = inspect(Kind::Degree, Err(std::io::ErrorKind::TimedOut.into()));
        assert!(!failed.ok());
    }

    #[test]
    fn epoch_changes_are_counted_per_connection() {
        let at = Instant::now();
        let seen = |epoch| Timed {
            intended: at,
            sent: at,
            done: at,
            out: Seen {
                kind: Kind::Degree,
                epoch,
                staleness_ms: 0.0,
                connect: None,
                ttfb: Duration::ZERO,
                error: None,
            },
        };
        let a = [seen(1), seen(1), seen(2), seen(2), seen(3)];
        let b = [seen(3), seen(3)];
        // 2 changes among 4 + 1 consecutive pairs.
        assert_eq!(epoch_change_ratio(&[&a, &b]), 0.4);
    }
}
