//! Epoch-tagged point-in-time snapshots over the ingest stream.
//!
//! The live query plane (`graphct serve`'s `/v1/query/*` endpoints)
//! needs a graph that *holds still* while a kernel runs, without
//! stopping ingest.  The answer here is the classic double-buffer: the
//! ingest loop periodically freezes its [`StreamingGraph`](crate::StreamingGraph)
//! into an immutable [`CsrGraph`] and publishes it through a
//! [`SnapshotCell`]; query workers grab an [`Arc`] of the current
//! [`Snapshot`] and compute against it for as long as they like.  The
//! previous snapshot stays alive until its last reader drops it — the
//! "two buffers" are simply the published `Arc` and whatever readers
//! still hold — so publication never blocks a running query and a
//! running query never blocks ingest.
//!
//! Every snapshot carries an **epoch** (monotone freeze counter), the
//! ingest **watermark** (the 1-based batch index it froze after), its
//! component **membership**, and its freeze instant, from which readers
//! derive the staleness they report next to every answer.  Membership
//! is computed once per freeze, by the publisher and outside the cell's
//! lock, so component and reach queries only read it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use graphct_core::CsrGraph;

use crate::components::Membership;

/// One immutable point-in-time freeze of the streaming graph.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Monotone freeze counter; `0` is the empty pre-ingest snapshot.
    pub epoch: u64,
    /// 1-based index of the newest batch fully ingested before the
    /// freeze (the ingest watermark this snapshot reflects).
    pub watermark_batch: u64,
    /// The frozen graph.  Shared, so handing a query worker the graph
    /// is one refcount bump, not a copy.
    pub graph: Arc<CsrGraph>,
    /// Connected components of `graph`: canonical min-id labels and
    /// per-label sizes.
    pub membership: Membership,
    frozen_at: Instant,
}

impl Snapshot {
    /// Freeze `graph` with its `membership` as epoch `epoch` at
    /// watermark `watermark_batch`, stamped now.
    fn new(epoch: u64, watermark_batch: u64, graph: CsrGraph, membership: Membership) -> Self {
        Self {
            epoch,
            watermark_batch,
            graph: Arc::new(graph),
            membership,
            frozen_at: Instant::now(),
        }
    }

    /// Time elapsed since this snapshot was frozen — the staleness every
    /// query response reports.
    pub fn staleness(&self) -> Duration {
        self.frozen_at.elapsed()
    }
}

/// The publication point between one writer (the ingest loop) and many
/// readers (query workers).
///
/// Readers call [`load`](SnapshotCell::load) and get the current
/// snapshot as an `Arc` — the lock is held only for the refcount bump,
/// never across a query.  The writer calls
/// [`publish`](SnapshotCell::publish) with a fresh freeze; epochs are
/// assigned here, so they are monotone by construction.  On-demand
/// refresh (`GET /v1/snapshot/refresh`) is a flag the writer polls at
/// batch boundaries via [`take_refresh_request`](SnapshotCell::take_refresh_request).
#[derive(Debug)]
pub struct SnapshotCell {
    current: Mutex<Arc<Snapshot>>,
    /// Cached copy of the published epoch, readable without the lock
    /// (gauges, cheap freshness probes).
    epoch: AtomicU64,
    refresh_requested: AtomicBool,
}

impl SnapshotCell {
    /// A cell holding the empty epoch-0 snapshot, so queries that
    /// arrive before the first freeze get a well-formed (empty) answer
    /// instead of an error.
    pub fn new() -> Self {
        let empty = Snapshot::new(0, 0, CsrGraph::empty(0, false), Membership::default());
        Self {
            current: Mutex::new(Arc::new(empty)),
            epoch: AtomicU64::new(0),
            refresh_requested: AtomicBool::new(false),
        }
    }

    /// The current snapshot (one refcount bump under a short lock).
    pub fn load(&self) -> Arc<Snapshot> {
        Arc::clone(&self.current.lock().expect("snapshot cell poisoned"))
    }

    /// Publish a fresh freeze and return its assigned epoch.  The
    /// freeze's membership (one union-find over the CSR) is computed
    /// before the lock is taken, so readers never wait on it.  The
    /// replaced snapshot stays alive until its last reader drops it.
    pub fn publish(&self, graph: CsrGraph, watermark_batch: u64) -> u64 {
        let membership = Membership::of(&graph);
        let mut slot = self.current.lock().expect("snapshot cell poisoned");
        let epoch = slot.epoch + 1;
        *slot = Arc::new(Snapshot::new(epoch, watermark_batch, graph, membership));
        self.epoch.store(epoch, Ordering::Release);
        epoch
    }

    /// The epoch of the most recently published snapshot, lock-free.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Ask the writer for a fresh freeze at its next batch boundary.
    pub fn request_refresh(&self) {
        self.refresh_requested.store(true, Ordering::Release);
    }

    /// Writer side: consume a pending refresh request, if any.
    pub fn take_refresh_request(&self) -> bool {
        self.refresh_requested.swap(false, Ordering::AcqRel)
    }
}

impl Default for SnapshotCell {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StreamingGraph;

    #[test]
    fn empty_cell_serves_epoch_zero() {
        let cell = SnapshotCell::new();
        let snap = cell.load();
        assert_eq!(snap.epoch, 0);
        assert_eq!(snap.watermark_batch, 0);
        assert_eq!(snap.graph.num_vertices(), 0);
        assert_eq!(snap.membership, Membership::default());
        assert_eq!(cell.epoch(), 0);
    }

    #[test]
    fn publish_bumps_epoch_and_readers_keep_old_freezes() {
        let cell = SnapshotCell::new();
        let mut g = StreamingGraph::new(3);
        g.insert_edge(0, 1).unwrap();

        let held = cell.load(); // reader pins epoch 0
        assert_eq!(cell.publish(g.snapshot(), 5), 1);
        g.insert_edge(1, 2).unwrap();
        assert_eq!(cell.publish(g.snapshot(), 9), 2);

        // The pinned snapshot is untouched by later publishes.
        assert_eq!(held.epoch, 0);
        assert_eq!(held.graph.num_edges(), 0);
        let now = cell.load();
        assert_eq!((now.epoch, now.watermark_batch), (2, 9));
        assert_eq!(now.graph.num_edges(), 2);
        assert_eq!(now.membership.colors, vec![0, 0, 0]);
        assert_eq!(held.membership.colors, Vec::<u32>::new());
        assert_eq!(cell.epoch(), 2);
    }

    #[test]
    fn refresh_request_is_one_shot() {
        let cell = SnapshotCell::new();
        assert!(!cell.take_refresh_request());
        cell.request_refresh();
        cell.request_refresh(); // idempotent
        assert!(cell.take_refresh_request());
        assert!(!cell.take_refresh_request(), "request is consumed");
    }

    #[test]
    fn staleness_grows() {
        let snap = Snapshot::new(1, 1, CsrGraph::empty(0, false), Membership::default());
        let a = snap.staleness();
        std::thread::sleep(Duration::from_millis(5));
        assert!(snap.staleness() > a);
    }
}
