//! Serve-mode integration test: live mid-ingest scrapes over real HTTP.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use graphct_obs::{start, ServeConfig};
use graphct_trace::schema::{validate_exposition, validate_jsonl};
use graphct_twitter::DatasetProfile;

fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut text = String::new();
    stream.read_to_string(&mut text).unwrap();
    let status: u16 = text
        .lines()
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    (status, body)
}

fn metric_value(exposition: &str, name: &str) -> Option<f64> {
    let prefix = format!("{name} ");
    exposition
        .lines()
        .find(|l| l.starts_with(&prefix))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

/// Scrape `/metrics` until `done` accepts the body, failing with
/// `what` after 30 s.
fn scrape_until(addr: SocketAddr, what: &str, done: impl Fn(&str) -> bool) -> String {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, body) = http_get(addr, "/metrics");
        if status == 200 && done(&body) {
            return body;
        }
        assert!(Instant::now() < deadline, "{what} within 30s:\n{body}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Wait until this server's own ingest loop has completed a batch, then
/// return a `/metrics` scrape.  Readiness comes from `/progress`, which
/// only this server's trace session feeds: the `/metrics` counters are
/// process-global, so a concurrently running test's server can move them
/// while this server's ingest thread still waits for the trace session.
fn wait_for_first_batch(addr: SocketAddr) -> String {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (_, progress) = http_get(addr, "/progress");
        let done = graphct_trace::json::parse(&progress)
            .ok()
            .and_then(|v| v.get("kernels")?.get("ingest")?.get("done")?.as_u64());
        if done.unwrap_or(0) > 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no batch ingested within 30s:\n{progress}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    scrape_until(addr, "no batch counted", |body| {
        metric_value(body, "graphct_ingest_batches_total").unwrap_or(0.0) > 0.0
    })
}

#[test]
fn mid_ingest_scrapes_increase_and_healthz_flips_on_drain() {
    let dir = std::env::temp_dir().join(format!("graphct_obs_serve_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace_out = dir.join("serve_trace.jsonl");

    let handle = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        profile: DatasetProfile::atlflood().scaled(0.05),
        seed: 7,
        batch_size: 32,
        batches: 0, // endless; the test drives shutdown
        interval_ms: 2,
        window_batches: 64,
        trace_out: Some(trace_out.clone()),
        stall_timeout_ms: 0, // watchdog exercised by its own test
        profile_hz: 97,
        ..ServeConfig::default()
    })
    .expect("serve starts");
    let addr = handle.local_addr();

    // --- live /metrics, scrape one ---
    let first = wait_for_first_batch(addr);
    validate_exposition(&first).unwrap_or_else(|(line, e)| panic!("line {line}: {e}\n{first}"));
    for series in [
        "graphct_ingest_batches_total",
        "graphct_ingest_mentions_total",
        "graphct_ingest_edges_inserted_total",
        "graphct_ingest_errors_total",
        "graphct_ingest_watermark_batch",
        "graphct_ingest_edges_per_sec",
        "graphct_ingest_lag_us",
        "graphct_window_vertices",
        "graphct_window_edges",
        "graphct_window_components",
    ] {
        assert!(
            metric_value(&first, series).is_some(),
            "missing required series {series}:\n{first}"
        );
    }

    // --- native histogram family + watchdog lines ride the scrape ---
    assert!(
        first.contains("# TYPE graphct_ingest_batch_ns histogram"),
        "scrape must expose a native histogram family:\n{first}"
    );
    assert!(
        first.contains("graphct_ingest_batch_ns_bucket{le=\"+Inf\"}"),
        "histogram family must close with the +Inf bucket:\n{first}"
    );
    assert!(
        metric_value(&first, "graphct_staleness_seconds").is_some(),
        "missing staleness gauge:\n{first}"
    );
    assert!(
        metric_value(&first, "graphct_stall_seconds_total").is_some(),
        "missing stall counter:\n{first}"
    );

    // --- healthy while serving ---
    let (status, body) = http_get(addr, "/healthz");
    assert_eq!((status, body.trim()), (200, "ok"));

    // --- scrape two: counters strictly increase mid-run, and span
    // aggregates are live too (ingest_batch spans have completed).  The
    // counters are process-global, so another test's server can move
    // them while this server's ingest thread still waits for the trace
    // session; the span aggregate is this server's own. ---
    let second = scrape_until(
        addr,
        "ingest did not progress past the first scrape",
        |body| {
            let grew = [
                "graphct_ingest_batches_total",
                "graphct_ingest_mentions_total",
            ]
            .iter()
            .all(|c| metric_value(body, c) > metric_value(&first, c));
            grew && metric_value(body, "graphct_span_count{span=\"ingest_batch\"}").unwrap_or(0.0)
                > 0.0
        },
    );
    validate_exposition(&second).unwrap();

    // --- /profile returns live folded stacks mid-ingest ---
    let deadline = Instant::now() + Duration::from_secs(30);
    let folded = loop {
        let (status, body) = http_get(addr, "/profile");
        assert_eq!(status, 200);
        if body.lines().any(|l| l.contains("ingest_batch")) {
            break body;
        }
        assert!(
            Instant::now() < deadline,
            "profiler never sampled an open ingest_batch span:\n{body}"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    // The body is valid folded-stack (flamegraph.pl/speedscope) input
    // rooted at the ingest thread, with an on/off-CPU state leaf.
    let stacks = graphct_trace::analyze::parse_folded(&folded).expect("folded text parses");
    let hit = stacks
        .iter()
        .find(|(path, _)| path.contains("ingest_batch"))
        .unwrap();
    assert!(hit.1 > 0, "sampled stack must have a positive count");
    assert!(
        hit.0.starts_with("graphct-obs-ingest;"),
        "stack should be rooted at the ingest thread: {}",
        hit.0
    );
    assert!(
        hit.0.ends_with(";[cpu]") || hit.0.ends_with(";[idle]"),
        "stack should be state-tagged: {}",
        hit.0
    );
    // JSON variant parses and carries the sampler's self-observation.
    let (status, json_body) = http_get(addr, "/profile?format=json");
    assert_eq!(status, 200);
    let v = graphct_trace::json::parse(&json_body).expect("profile json parses");
    assert!(v.get("samples_total").and_then(|s| s.as_u64()).unwrap() > 0);
    assert!(json_body.contains("ingest_batch"), "{json_body}");
    // Top-N self-time table renders.
    let (status, top) = http_get(addr, "/profile?format=top");
    assert_eq!(status, 200);
    assert!(top.contains("continuous profiler"), "{top}");

    // --- /progress is valid JSON with ingest progress ---
    let (status, progress) = http_get(addr, "/progress");
    assert_eq!(status, 200);
    let v = graphct_trace::json::parse(&progress).expect("progress is JSON");
    assert_eq!(v.get("health").and_then(|h| h.as_str()), Some("ok"));
    let ingest = v
        .get("kernels")
        .and_then(|k| k.get("ingest"))
        .unwrap_or_else(|| panic!("no ingest kernel in {progress}"));
    assert!(ingest.get("done").and_then(|d| d.as_u64()).unwrap() > 0);

    // --- graceful shutdown: healthz flips, then everything drains ---
    handle.begin_shutdown();
    let (status, body) = http_get(addr, "/healthz");
    assert_eq!((status, body.trim()), (503, "draining"));

    let stats = handle.wait();
    assert!(stats.batches > 0);
    assert!(stats.mentions > 0);

    // The trace tee was flushed on drain and is schema-valid, with the
    // ingest telemetry in it.
    let trace = std::fs::read_to_string(&trace_out).unwrap();
    validate_jsonl(&trace).unwrap_or_else(|(line, e)| panic!("line {line}: {e}"));
    assert!(trace.contains("\"ingest_batch\""), "trace has batch spans");
    assert!(
        trace.contains("ingest_batches_total"),
        "trace has final counter totals"
    );
    assert!(
        trace.contains("\"ingest_batch_ns\""),
        "trace has the batch-latency histogram record"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn watchdog_stall_injection_degrades_healthz_and_recovers() {
    let handle = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        profile: DatasetProfile::atlflood().scaled(0.05),
        seed: 11,
        batch_size: 16,
        batches: 0,
        interval_ms: 1,
        window_batches: 32,
        trace_out: None,
        stall_timeout_ms: 250,
        profile_hz: 0, // profiler exercised by the mid-ingest test
        ..ServeConfig::default()
    })
    .expect("serve starts");
    let addr = handle.local_addr();
    wait_for_first_batch(addr);

    // Healthy while batches flow.
    assert_eq!(http_get(addr, "/healthz").0, 200);

    // Freeze ingest over HTTP (the CI stall injection uses curl against
    // the same endpoint), then poll until the deadline trips.
    let (status, body) = http_get(addr, "/pause");
    assert_eq!((status, body.trim()), (200, "paused"));
    let deadline = Instant::now() + Duration::from_secs(10);
    let stall_body = loop {
        let (status, body) = http_get(addr, "/healthz");
        if status == 503 {
            break body;
        }
        assert!(Instant::now() < deadline, "healthz never flipped to 503");
        std::thread::sleep(Duration::from_millis(25));
    };
    // The reason carries this server's own stall age.  (The staleness
    // gauge on /metrics is process-global, so a concurrently running
    // test's server can overwrite it between our write and our scrape.)
    let stall_age: f64 = stall_body
        .strip_prefix("stalled: no ingest batch for ")
        .and_then(|rest| rest.trim().strip_suffix('s'))
        .and_then(|age| age.parse().ok())
        .unwrap_or_else(|| panic!("503 body must carry the stall reason, got {stall_body:?}"));
    assert!(
        stall_age > 0.25,
        "stall age must exceed the 250ms deadline, got {stall_body:?}"
    );

    // The scrape keeps answering and carries the watchdog series.
    let (status, metrics) = http_get(addr, "/metrics");
    assert_eq!(status, 200, "metrics must keep answering while stalled");
    validate_exposition(&metrics).unwrap_or_else(|(line, e)| panic!("line {line}: {e}\n{metrics}"));
    for series in ["graphct_staleness_seconds", "graphct_stall_seconds_total"] {
        assert!(
            metric_value(&metrics, series).is_some(),
            "missing {series}:\n{metrics}"
        );
    }

    // /progress reports the degraded health string.
    let (_, progress) = http_get(addr, "/progress");
    let v = graphct_trace::json::parse(&progress).expect("progress is JSON");
    assert_eq!(v.get("health").and_then(|h| h.as_str()), Some("stalled"));

    // Recovery: resume ingest, wait for a fresh batch to clear the stall.
    let (status, body) = http_get(addr, "/resume");
    assert_eq!((status, body.trim()), (200, "resumed"));
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (status, body) = http_get(addr, "/healthz");
        if status == 200 {
            assert_eq!(body.trim(), "ok");
            break;
        }
        assert!(Instant::now() < deadline, "healthz never recovered");
        std::thread::sleep(Duration::from_millis(25));
    }

    // The stall total survives recovery (monotone counter).
    let (_, metrics) = http_get(addr, "/metrics");
    assert!(
        metric_value(&metrics, "graphct_stall_seconds_total").unwrap() > 0.0,
        "stall total must persist after recovery:\n{metrics}"
    );

    let stats = handle.wait();
    assert!(stats.batches > 0);
}

/// `ServeHandle::pause` returns only once the ingest loop holds between
/// batches: no batch, and so no snapshot freeze, lands after it returns.
/// Unpaced ingest with a freeze every batch is nearly always mid-batch,
/// so a `pause` that only raised the flag would see the epoch move.
#[test]
fn pause_returns_once_ingest_holds() {
    let handle = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        profile: DatasetProfile::atlflood().scaled(0.05),
        batch_size: 32,
        interval_ms: 0,
        snapshot_every: 1,
        stall_timeout_ms: 0,
        profile_hz: 0,
        ..ServeConfig::default()
    })
    .expect("start serve");
    let deadline = Instant::now() + Duration::from_secs(30);
    while handle.snapshot().epoch == 0 {
        assert!(Instant::now() < deadline, "no snapshot within 30s");
        std::thread::sleep(Duration::from_millis(1));
    }
    for _ in 0..20 {
        handle.pause();
        let held = handle.snapshot().epoch;
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(handle.snapshot().epoch, held, "a freeze landed after pause");
        handle.resume();
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(handle.wait().batches > 0);
}
