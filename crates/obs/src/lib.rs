//! # graphct-obs — the live monitoring plane
//!
//! The paper's motivating scenario is *near-real-time* crisis monitoring
//! (tracking `#atlflood` as the flood unfolds, §III-A-2); this crate
//! turns the flush-at-exit telemetry of `graphct-trace` into an
//! operational plane you can watch while the analysis runs:
//!
//! * [`http`] — a std-only HTTP/1.1 server (no new dependencies; the
//!   shims-only policy holds): a blocking accept thread and one
//!   keep-alive thread per connection, with a gate bounding concurrent
//!   handlers, so slow queries never block health probes;
//! * [`router`] — method + path-pattern dispatch plus the versioned
//!   JSON envelope (`{"v", "epoch", "staleness_s", "data" | "error"}`)
//!   every `/v1/*` response is wrapped in;
//! * [`query`] — the live query plane: graph queries answered from
//!   epoch-tagged [`Snapshot`](graphct_stream::Snapshot) freezes while
//!   ingest continues;
//! * [`progress`] — a sink deriving per-kernel percent-complete and ETA
//!   from the telemetry the kernels already emit;
//! * [`serve`] — the `graphct serve` driver: paced batches of the
//!   synthetic tweet stream through a
//!   [`StreamingGraph`](graphct_stream::StreamingGraph) with a sliding
//!   window, exporting ingest watermark / throughput / lag / window
//!   gauges, publishing query-plane snapshots every `--snapshot-every`
//!   batches, with graceful SIGINT drain.
//!
//! Legacy endpoints (exact wire formats preserved through the router):
//! `/metrics` (Prometheus text exposition, live mid-session, including
//! the watchdog's `graphct_staleness_seconds` /
//! `graphct_stall_seconds_total` float gauges), `/healthz` (`200 ok`
//! serving, `503 stalled: ...` when the ingest watchdog trips, `503
//! draining` during shutdown), `/progress` (JSON: span stacks, kernel
//! progress, ETAs), `/profile` (live folded stacks from the continuous
//! wall-clock sampler; `?format=json` and `?format=top` variants), and
//! `/pause` + `/resume` (freeze ingest between batches — the
//! stall-injection hook the watchdog tests lean on).
//!
//! Query endpoints: `/v1/query/topk`, `/v1/query/component`,
//! `/v1/query/degree`, `/v1/query/ego`, `/v1/snapshot`, and
//! `/v1/snapshot/refresh` — see [`query`] for the table.

pub mod http;
pub mod progress;
pub mod query;
pub mod router;
pub mod serve;
pub mod watchdog;

pub use http::{HttpServer, Response};
pub use progress::ProgressTracker;
pub use query::{bc_seed, query_bc_config, QueryPlane};
pub use router::{envelope_error, envelope_ok, RouteHandler, RouteRequest, Router};
pub use serve::{
    install_sigint_handler, sigint_received, start, IngestStats, ServeConfig, ServeHandle,
};
pub use watchdog::{Watchdog, WatchdogStatus};
