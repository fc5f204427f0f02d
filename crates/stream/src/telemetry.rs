//! Ingest-plane metrics for the live monitoring loop (`graphct serve`).
//!
//! Counters accumulate over the whole session; gauges describe the
//! current batch and the sliding window.  All of them are plain
//! `graphct-trace` statics — near-free when no session is active, and
//! scrapeable mid-session through `graphct_trace::Registry::snapshot`.

use graphct_trace::{Counter, Gauge, Histogram};

/// Wall-clock nanoseconds spent ingesting each batch (parse + graph
/// insert + window maintenance, excluding pacing sleep).
pub static INGEST_BATCH_NS: Histogram = Histogram::new(
    "ingest_batch_ns",
    "Nanoseconds per ingest batch (parse, insert, and window expiry; pacing sleep excluded)",
);

/// Batches ingested since the session started.
pub static INGEST_BATCHES: Counter = Counter::new(
    "ingest_batches_total",
    "Stream batches ingested this session",
);

/// Mention edges processed (including duplicates and self-mentions).
pub static INGEST_MENTIONS: Counter = Counter::new(
    "ingest_mentions_total",
    "Mention edges processed (inserted + duplicate + self-mention)",
);

/// New edges actually inserted into the streaming graph.
pub static INGEST_EDGES_INSERTED: Counter = Counter::new(
    "ingest_edges_inserted_total",
    "New edges inserted into the streaming graph",
);

/// Duplicate mentions dropped by the simple-graph invariant.
pub static INGEST_DUPLICATES: Counter = Counter::new(
    "ingest_duplicate_mentions_total",
    "Duplicate mentions dropped (edge already present)",
);

/// Edges aged out of the sliding window (deleted from the graph).
pub static INGEST_EDGES_EXPIRED: Counter = Counter::new(
    "ingest_edges_expired_total",
    "Edges aged out of the sliding window and deleted",
);

/// Mentions the streaming graph rejected.  Rejected pairs are excluded
/// from window tracking so expiry never deletes an edge that was never
/// inserted.
pub static INGEST_ERRORS: Counter = Counter::new(
    "ingest_errors_total",
    "Mentions rejected by the streaming graph (excluded from window tracking)",
);

/// High-water mark: 1-based index of the newest fully ingested batch.
pub static INGEST_WATERMARK_BATCH: Gauge = Gauge::new(
    "ingest_watermark_batch",
    "Newest fully ingested batch (1-based watermark)",
);

/// Ingest throughput over the last batch, mentions per second.  This is
/// *parse* throughput, not graph growth: duplicates and self-mentions
/// count (self-mentions are legal tweets the simple graph merely has no
/// edge for), rejected mentions count too.
pub static INGEST_EDGES_PER_SEC: Gauge = Gauge::new(
    "ingest_edges_per_sec",
    "Mention edges processed per second over the last batch (parse throughput: duplicates, self-mentions, and rejected mentions all count)",
);

/// How far the last batch finished behind its schedule, in microseconds.
pub static INGEST_LAG_US: Gauge = Gauge::new(
    "ingest_lag_us",
    "Microseconds the last batch finished behind its pacing schedule",
);

/// Vertices with at least one live edge in the sliding window.
pub static WINDOW_VERTICES: Gauge = Gauge::new(
    "window_vertices",
    "Vertices with >=1 live edge in the sliding window",
);

/// Live edges in the sliding window.
pub static WINDOW_EDGES: Gauge = Gauge::new("window_edges", "Edges live in the sliding window");

/// Connected components among window-active vertices, as of the latest
/// snapshot freeze (read off its published membership).
pub static WINDOW_COMPONENTS: Gauge = Gauge::new(
    "window_components",
    "Connected components among window-active vertices, as of the latest snapshot freeze",
);

/// Wall-clock nanoseconds spent freezing the streaming graph into a CSR
/// snapshot, labelling its components and publishing it to the query
/// plane.
pub static SNAPSHOT_REFRESH_NS: Histogram = Histogram::new(
    "snapshot_refresh_ns",
    "Nanoseconds per snapshot freeze (StreamingGraph -> CsrGraph + membership + publish)",
);

/// Epoch of the most recently published query-plane snapshot.
pub static SNAPSHOT_EPOCH: Gauge = Gauge::new(
    "snapshot_epoch",
    "Epoch of the most recently published query-plane snapshot",
);

/// Touch every ingest metric so it registers (and therefore appears in
/// the very first `/metrics` scrape, before any batch completes).  Must
/// run inside an active session — registration is lazy and gated on the
/// session enable flag.
pub fn register_ingest_metrics() {
    for c in [
        &INGEST_BATCHES,
        &INGEST_MENTIONS,
        &INGEST_EDGES_INSERTED,
        &INGEST_DUPLICATES,
        &INGEST_EDGES_EXPIRED,
        &INGEST_ERRORS,
    ] {
        c.add(0);
    }
    for g in [
        &INGEST_WATERMARK_BATCH,
        &INGEST_EDGES_PER_SEC,
        &INGEST_LAG_US,
        &WINDOW_VERTICES,
        &WINDOW_EDGES,
        &WINDOW_COMPONENTS,
        &SNAPSHOT_EPOCH,
    ] {
        g.set(g.value());
    }
    INGEST_BATCH_NS.touch();
    SNAPSHOT_REFRESH_NS.touch();
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphct_trace::{NullSink, Session};
    use std::sync::Arc;

    #[test]
    fn registration_exposes_all_ingest_series() {
        let session = Session::start(Arc::new(NullSink));
        register_ingest_metrics();
        let names: Vec<&str> = graphct_trace::snapshot_metrics()
            .iter()
            .map(|m| m.name)
            .collect();
        for want in [
            "ingest_batches_total",
            "ingest_mentions_total",
            "ingest_edges_inserted_total",
            "ingest_duplicate_mentions_total",
            "ingest_edges_expired_total",
            "ingest_errors_total",
            "ingest_watermark_batch",
            "ingest_edges_per_sec",
            "ingest_lag_us",
            "window_vertices",
            "window_edges",
            "window_components",
            "ingest_batch_ns",
            "snapshot_refresh_ns",
            "snapshot_epoch",
        ] {
            assert!(names.contains(&want), "missing {want} in {names:?}");
        }
        session.finish();
    }
}
