//! Sharded atomic counters and gauges.
//!
//! Counters are the "always cheap" half of the telemetry spine: a
//! kernel-side `COUNTER.add(n)` is one relaxed load of the global enable
//! flag when tracing is off, and one relaxed fetch-add into a per-thread
//! shard when it is on — no locks, no event allocation.  Totals are read
//! once, when a [`Session`](crate::Session) finishes, and handed to the
//! active sink as `counter` records.
//!
//! There is no external metrics registry: counters are plain `static`s
//! declared next to the code they observe, and lazily register themselves
//! in a process-local list on first use so sinks can enumerate them.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Number of shards per counter.  Sixteen 64-byte-aligned cells bound the
/// worst-case false sharing while costing 1 KiB per counter static.
const SHARDS: usize = 16;

#[repr(align(64))]
struct Shard(AtomicU64);

/// Dense ordinal of the calling thread, used to pick counter shards and
/// tag events.  Assigned on first use, monotonically from zero.
pub fn thread_ordinal() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static ORDINAL: usize = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ORDINAL.with(|o| *o)
}

/// A monotonically increasing sharded counter.
///
/// Declare as a `static` and bump with [`Counter::add`]; the value is the
/// sum over shards.  Counters reset to zero when a session installs, so
/// each session reports its own totals.
pub struct Counter {
    name: &'static str,
    help: &'static str,
    shards: [Shard; SHARDS],
    registered: AtomicBool,
}

impl Counter {
    /// A new counter (const — usable in `static` position).
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        Self {
            name,
            help,
            shards: [const { Shard(AtomicU64::new(0)) }; SHARDS],
            registered: AtomicBool::new(false),
        }
    }

    /// Metric name (snake_case, no prefix).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// One-line description (Prometheus HELP text).
    pub fn help(&self) -> &'static str {
        self.help
    }

    /// Add `n` when tracing is enabled; near-free no-op otherwise.
    #[inline]
    pub fn add(&'static self, n: u64) {
        if !crate::enabled() {
            return;
        }
        if !self.registered.load(Ordering::Relaxed) {
            self.register();
        }
        self.shards[thread_ordinal() % SHARDS]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Shorthand for `add(1)`.
    #[inline]
    pub fn incr(&'static self) {
        self.add(1);
    }

    /// Current total (sum over shards).
    pub fn value(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }

    fn reset(&self) {
        for s in &self.shards {
            s.0.store(0, Ordering::Relaxed);
        }
    }

    #[cold]
    fn register(&'static self) {
        if !self.registered.swap(true, Ordering::Relaxed) {
            registry()
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(Metric::Counter(self));
        }
    }
}

/// A gauge holding the most recent (or maximum) observation, e.g. peak
/// live heap bytes.  Same enable/registration discipline as [`Counter`].
pub struct Gauge {
    name: &'static str,
    help: &'static str,
    cell: AtomicU64,
    registered: AtomicBool,
}

impl Gauge {
    /// A new gauge (const — usable in `static` position).
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        Self {
            name,
            help,
            cell: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// Metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// One-line description.
    pub fn help(&self) -> &'static str {
        self.help
    }

    /// Overwrite the gauge when tracing is enabled.
    #[inline]
    pub fn set(&'static self, v: u64) {
        if !crate::enabled() {
            return;
        }
        if !self.registered.load(Ordering::Relaxed) {
            self.register();
        }
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.cell.store(0, Ordering::Relaxed);
    }

    #[cold]
    fn register(&'static self) {
        if !self.registered.swap(true, Ordering::Relaxed) {
            registry()
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(Metric::Gauge(self));
        }
    }
}

/// A float-valued metric (e.g. fractional seconds), stored as `f64`
/// bits in an `AtomicU64`.  Same enable/registration discipline as
/// [`Gauge`]; construct with [`new`](GaugeF64::new) for gauge semantics
/// or [`monotone`](GaugeF64::monotone) for a counter-typed series whose
/// value only grows (like `stall_seconds_total`).  Snapshots carry the
/// exact float in [`MetricSnapshot::value_f64`] and a rounded integer in
/// `value` so the JSONL counter-record schema stays integral.
pub struct GaugeF64 {
    name: &'static str,
    help: &'static str,
    bits: AtomicU64,
    monotone: bool,
    registered: AtomicBool,
}

impl GaugeF64 {
    /// A new float gauge (const — usable in `static` position).
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        Self {
            name,
            help,
            bits: AtomicU64::new(0),
            monotone: false,
            registered: AtomicBool::new(false),
        }
    }

    /// A float metric exposed with Prometheus TYPE `counter` (the caller
    /// promises the value never decreases).
    pub const fn monotone(name: &'static str, help: &'static str) -> Self {
        Self {
            name,
            help,
            bits: AtomicU64::new(0),
            monotone: true,
            registered: AtomicBool::new(false),
        }
    }

    /// Metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// One-line description.
    pub fn help(&self) -> &'static str {
        self.help
    }

    /// Overwrite the value when tracing is enabled.
    #[inline]
    pub fn set(&'static self, v: f64) {
        if !crate::enabled() {
            return;
        }
        if !self.registered.load(Ordering::Relaxed) {
            self.register();
        }
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    fn reset(&self) {
        self.bits.store(0f64.to_bits(), Ordering::Relaxed);
    }

    #[cold]
    fn register(&'static self) {
        if !self.registered.swap(true, Ordering::Relaxed) {
            registry()
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(Metric::GaugeF64(self));
        }
    }
}

/// A registered metric (counters, gauges, and histograms share one list).
#[derive(Clone, Copy)]
enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    GaugeF64(&'static GaugeF64),
    Histogram(&'static crate::histogram::Histogram),
}

fn registry() -> &'static Mutex<Vec<Metric>> {
    static REGISTRY: Mutex<Vec<Metric>> = Mutex::new(Vec::new());
    &REGISTRY
}

/// Register a histogram static (called once from its cold path).
pub(crate) fn register_histogram(h: &'static crate::histogram::Histogram) {
    registry()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(Metric::Histogram(h));
}

/// Point-in-time value of one registered metric, as handed to sinks when
/// a session finishes.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// Metric name.
    pub name: &'static str,
    /// HELP text.
    pub help: &'static str,
    /// Total (counter), last/max observation (gauge), or observation
    /// count (histogram).  Rounded for float metrics (see `value_f64`).
    pub value: u64,
    /// Exact value of a float metric ([`GaugeF64`]); `None` for the
    /// integer metric kinds.  Float-valued sinks (Prometheus exposition)
    /// prefer this; integer sinks (JSONL counter records) use `value`.
    pub value_f64: Option<f64>,
    /// `true` for gauges (Prometheus TYPE line differs).
    pub is_gauge: bool,
    /// Bin totals when the metric is a histogram; `None` otherwise.
    pub histogram: Option<crate::histogram::HistogramSnapshot>,
}

/// Snapshot every metric that has registered so far, sorted by name.
pub fn snapshot_metrics() -> Vec<MetricSnapshot> {
    let metrics = registry().lock().unwrap_or_else(PoisonError::into_inner);
    let mut out: Vec<MetricSnapshot> = metrics
        .iter()
        .map(|m| match m {
            Metric::Counter(c) => MetricSnapshot {
                name: c.name,
                help: c.help,
                value: c.value(),
                value_f64: None,
                is_gauge: false,
                histogram: None,
            },
            Metric::Gauge(g) => MetricSnapshot {
                name: g.name,
                help: g.help,
                value: g.value(),
                value_f64: None,
                is_gauge: true,
                histogram: None,
            },
            Metric::GaugeF64(g) => {
                let v = g.value();
                MetricSnapshot {
                    name: g.name,
                    help: g.help,
                    value: if v.is_finite() && v > 0.0 {
                        v.round() as u64
                    } else {
                        0
                    },
                    value_f64: Some(v),
                    is_gauge: !g.monotone,
                    histogram: None,
                }
            }
            Metric::Histogram(h) => {
                let snap = h.snapshot();
                MetricSnapshot {
                    name: h.name(),
                    help: h.help(),
                    value: snap.count(),
                    value_f64: None,
                    is_gauge: false,
                    histogram: Some(snap),
                }
            }
        })
        .collect();
    out.sort_by_key(|s| s.name);
    out
}

/// Zero every registered metric (called when a new session installs so
/// per-session totals do not bleed across runs).
pub(crate) fn reset_metrics() {
    for m in registry()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
    {
        match m {
            Metric::Counter(c) => c.reset(),
            Metric::Gauge(g) => g.reset(),
            Metric::GaugeF64(g) => g.reset(),
            Metric::Histogram(h) => h.reset(),
        }
    }
}
