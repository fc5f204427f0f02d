//! The analytics lane seen from outside: default top-k over real HTTP
//! against a live service, with the lane's counters read off `/metrics`.
//!
//! The `graphct_topk_*` counters are process-global and reset when a
//! serve session starts, so the tests in this file (its own process)
//! run one at a time.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use graphct_kernels::top_k_betweenness;
use graphct_obs::{bc_seed, query_bc_config, start, ServeConfig};
use graphct_trace::json::{parse, Json};
use graphct_twitter::DatasetProfile;

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

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
    let (_, body) = text.split_once("\r\n\r\n").expect("header/body split");
    (status, body.to_owned())
}

fn counter(addr: SocketAddr, name: &str) -> u64 {
    let (status, body) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    let prefix = format!("{name} ");
    body.lines()
        .find_map(|l| l.strip_prefix(&prefix))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("{name} missing from /metrics:\n{body}"))
}

fn serve_config(seed: u64) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        profile: DatasetProfile::atlflood().scaled(0.05),
        seed,
        batch_size: 32,
        batches: 0,
        interval_ms: 2,
        window_batches: 256,
        trace_out: None,
        stall_timeout_ms: 0,
        profile_hz: 0,
        snapshot_every: 2,
        query_threads: 4,
        topk: 10,
    }
}

/// The `(epoch, data)` of a 200 `/v1/query/topk` reply.
fn topk(addr: SocketAddr, query: &str) -> (u64, Json) {
    let (status, body) = http_get(addr, &format!("/v1/query/topk?{query}"));
    assert_eq!(status, 200, "{body}");
    let v = parse(&body).unwrap_or_else(|e| panic!("{e}: {body}"));
    let epoch = v.get("epoch").and_then(Json::as_u64).expect("epoch");
    (epoch, v.get("data").cloned().expect("data"))
}

#[test]
fn cold_service_ranks_nothing_then_concurrent_requests_share_one_ranking() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let handle = start(serve_config(5)).expect("serve starts");
    let addr = handle.local_addr();
    // No top-k request yet: three publishes hand the lane nothing.
    let deadline = Instant::now() + Duration::from_secs(30);
    while handle.snapshot().epoch < 3 {
        assert!(Instant::now() < deadline, "three freezes within 30s");
        std::thread::sleep(Duration::from_millis(5));
    }
    handle.pause();
    assert_eq!(counter(addr, "graphct_topk_rankings_total"), 0);
    assert_eq!(counter(addr, "graphct_topk_previous_epoch_total"), 0);
    assert_eq!(counter(addr, "graphct_topk_waits_total"), 0);

    // Ingest is held, so four requests started together all land on
    // one epoch, and the lane runs BC for it once.
    let snap = handle.snapshot();
    let barrier = Barrier::new(4);
    let replies: Vec<(u64, Json)> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    topk(addr, "k=5")
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().unwrap()).collect()
    });
    assert_eq!(counter(addr, "graphct_topk_rankings_total"), 1);
    assert!(counter(addr, "graphct_topk_waits_total") >= 1);
    assert_eq!(counter(addr, "graphct_topk_previous_epoch_total"), 0);
    let n = snap.graph.num_vertices();
    let config = query_bc_config(16.min(n), bc_seed(5, snap.epoch));
    let want = top_k_betweenness(&snap.graph, &config, 5).expect("offline recompute");
    for (epoch, data) in &replies {
        assert_eq!(*epoch, snap.epoch);
        let top = data.get("top").and_then(Json::as_arr).expect("top array");
        let served: Vec<(u64, u64)> = top
            .iter()
            .map(|e| {
                let v = e.get("vertex").and_then(Json::as_u64).unwrap();
                (v, e.get("score").and_then(Json::as_f64).unwrap().to_bits())
            })
            .collect();
        let want: Vec<(u64, u64)> = want
            .iter()
            .map(|&(v, s)| (u64::from(v), s.to_bits()))
            .collect();
        assert_eq!(served, want);
    }
    handle.wait();
}

#[test]
fn warm_lane_keeps_default_topk_epochs_monotone_and_wait_returns_promptly() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let handle = start(serve_config(9)).expect("serve starts");
    let addr = handle.local_addr();
    let deadline = Instant::now() + Duration::from_secs(30);
    while handle.snapshot().epoch < 1 {
        assert!(Instant::now() < deadline, "first freeze within 30s");
        std::thread::sleep(Duration::from_millis(5));
    }
    // A client asking steadily while ingest publishes: each new epoch
    // is ranked by the lane, and its replies never step back.
    let start_epoch = handle.snapshot().epoch;
    let mut epochs = Vec::new();
    while handle.snapshot().epoch < start_epoch + 6 {
        assert!(Instant::now() < deadline, "six more freezes within 30s");
        epochs.push(topk(addr, "k=3").0);
    }
    assert!(
        epochs.windows(2).all(|w| w[0] <= w[1]),
        "default top-k epochs must be monotone per client: {epochs:?}"
    );
    assert!(counter(addr, "graphct_topk_rankings_total") >= 2);
    // Warm lane, ingest still publishing: shutdown does not hang on it.
    let asked = Instant::now();
    handle.wait();
    assert!(asked.elapsed() < Duration::from_secs(2));
}
