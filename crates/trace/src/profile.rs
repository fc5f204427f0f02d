//! Continuous profiler: per-thread shadow stacks + a wall-clock sampler.
//!
//! The offline flame view (`graphct trace flame`) answers "where did the
//! time go" only after a run finishes and only when a JSONL trace was
//! teed.  This module answers it *live*: every thread that opens spans
//! keeps a fixed-depth **shadow stack** of the open span names, and a
//! background sampler thread wakes at a configurable rate (default
//! [`DEFAULT_HZ`] = 97 Hz, prime so it cannot phase-lock with the 200 ms
//! serve watchdog heartbeat) and snapshots every registered thread's
//! stack into folded-stack counts — the exact input format of
//! `flamegraph.pl` and speedscope.
//!
//! # Shadow stack design
//!
//! Each thread owns a [`ShadowStack`]: `SHADOW_DEPTH` frames of
//! `(ptr, len)` word pairs naming the open spans (span names are
//! `&'static str`, so a validated pair can always be reconstructed), a
//! `depth` word counting *all* open spans (even past the shadow depth),
//! and a **seqlock** word.  Only the owning thread writes; the sampler
//! only reads:
//!
//! * writer: bump `seq` to odd (relaxed), release fence, write
//!   frames/depth (relaxed), store `seq` even (release);
//! * reader: load `seq` (acquire) — retry if odd — read frames/depth
//!   (relaxed), acquire fence, re-load `seq` and retry unless unchanged.
//!
//! A torn read is therefore *detected*, never dereferenced: frame
//! pointers are only turned back into `&'static str` after the second
//! `seq` load validates the snapshot.  All shared words are atomics, so
//! even a discarded racy read is well-defined.  Pushes beyond
//! `SHADOW_DEPTH` only bump `depth`; the sampler counts those samples in
//! [`Profiler::truncated_total`] (surfaced as the
//! `profile_truncated_total` counter) so deep recursion is visible
//! rather than silently clipped.
//!
//! # On-CPU vs idle attribution
//!
//! Each sample is tagged `[cpu]` or `[idle]` by reading the sampled
//! task's `utime + stime` from `/proc/self/task/<tid>/stat` and
//! comparing against the previous sample (linux-gated, like
//! `MemoryProbe`; other platforms report `[cpu]`).  A thread blocked in
//! `accept(2)` or a mutex therefore folds under `…;[idle]`, separating
//! "slow because busy" from "slow because waiting".
//!
//! The profiler observes itself: `profile_samples_total` and
//! `profile_truncated_total` are ordinary registry counters, so `/metrics`
//! shows the sampler's own activity.

use std::collections::BTreeMap;
use std::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use crate::counter::{thread_ordinal, Counter};

/// Default sampling rate.  Prime, so the sampler cannot settle into a
/// beat pattern with the serve watchdog's 200 ms (5 Hz) heartbeat or
/// other round-number periodic work.
pub const DEFAULT_HZ: u32 = 97;

/// Frames kept per thread.  Spans nest shallowly in this codebase
/// (serve → ingest_batch → kernel → level is four); 32 leaves an order
/// of magnitude of headroom while keeping a thread entry under 600 B.
pub const SHADOW_DEPTH: usize = 32;

/// Samples taken by the wall-clock sampler (one per thread per tick).
pub static PROFILE_SAMPLES_TOTAL: Counter = Counter::new(
    "profile_samples_total",
    "Shadow-stack samples captured by the continuous profiler",
);

/// Samples whose true span depth exceeded [`SHADOW_DEPTH`].
pub static PROFILE_TRUNCATED_TOTAL: Counter = Counter::new(
    "profile_truncated_total",
    "Profiler samples whose span stack was deeper than the shadow depth",
);

#[repr(align(16))]
struct Frame {
    ptr: AtomicUsize,
    len: AtomicUsize,
}

/// Per-thread seqlock-guarded stack of open span names.
struct ShadowStack {
    /// Seqlock word: odd while the owning thread mutates, even at rest.
    seq: AtomicU32,
    /// Open span count, *including* spans past the shadow depth.
    depth: AtomicU32,
    frames: [Frame; SHADOW_DEPTH],
}

impl ShadowStack {
    const fn new() -> Self {
        ShadowStack {
            seq: AtomicU32::new(0),
            depth: AtomicU32::new(0),
            frames: [const {
                Frame {
                    ptr: AtomicUsize::new(0),
                    len: AtomicUsize::new(0),
                }
            }; SHADOW_DEPTH],
        }
    }

    /// Push `name` (owning thread only).
    fn push(&self, name: &'static str) {
        let d = self.depth.load(Ordering::Relaxed);
        let s = self.seq.load(Ordering::Relaxed);
        self.seq.store(s.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
        if (d as usize) < SHADOW_DEPTH {
            let frame = &self.frames[d as usize];
            frame.ptr.store(name.as_ptr() as usize, Ordering::Relaxed);
            frame.len.store(name.len(), Ordering::Relaxed);
        }
        self.depth.store(d + 1, Ordering::Relaxed);
        self.seq.store(s.wrapping_add(2), Ordering::Release);
    }

    /// Pop one frame (owning thread only).  Tolerates an unbalanced pop
    /// (a guard moved to another thread) by refusing to underflow.
    fn pop(&self) {
        let d = self.depth.load(Ordering::Relaxed);
        if d == 0 {
            return;
        }
        let s = self.seq.load(Ordering::Relaxed);
        self.seq.store(s.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
        self.depth.store(d - 1, Ordering::Relaxed);
        self.seq.store(s.wrapping_add(2), Ordering::Release);
    }

    /// Snapshot the visible frames without tearing.  Returns the open
    /// span names (outermost first) and whether the true depth exceeded
    /// the shadow depth; `None` if the writer kept the seqlock busy for
    /// all retries (the sampler then skips this thread for one tick).
    fn sample(&self) -> Option<(Vec<&'static str>, bool)> {
        let mut raw = [(0usize, 0usize); SHADOW_DEPTH];
        for _ in 0..64 {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let depth = self.depth.load(Ordering::Relaxed) as usize;
            let visible = depth.min(SHADOW_DEPTH);
            for (slot, frame) in raw[..visible].iter_mut().zip(&self.frames) {
                *slot = (
                    frame.ptr.load(Ordering::Relaxed),
                    frame.len.load(Ordering::Relaxed),
                );
            }
            fence(Ordering::Acquire);
            if self.seq.load(Ordering::Relaxed) != s1 {
                continue;
            }
            // Validated: every (ptr, len) pair below `visible` was
            // written together from a live &'static str.
            let names = raw[..visible]
                .iter()
                .filter(|&&(ptr, _)| ptr != 0)
                .map(|&(ptr, len)| unsafe {
                    std::str::from_utf8_unchecked(std::slice::from_raw_parts(ptr as *const u8, len))
                })
                .collect();
            return Some((names, depth > SHADOW_DEPTH));
        }
        None
    }
}

/// One registered thread: its display name, kernel task id, shadow
/// stack, and the CPU-tick baseline the sampler uses for on/idle tagging.
struct ThreadEntry {
    name: String,
    #[cfg_attr(not(target_os = "linux"), allow(dead_code))]
    tid: Option<u64>,
    alive: AtomicBool,
    stack: ShadowStack,
    /// `utime + stime` at the previous sample (+1, so 0 means "no
    /// baseline yet").  Written by the sampler thread only.
    last_cpu_ticks: AtomicU64,
    /// Cached handle to `/proc/self/task/<tid>/stat`, opened lazily on
    /// the first sample.  Rereading one fd (seek + read) costs two
    /// syscalls per thread per wake; reopening by path would add an
    /// `openat` plus procfs path resolution on every one.
    #[cfg(target_os = "linux")]
    stat_file: Mutex<Option<std::fs::File>>,
}

#[cfg(target_os = "linux")]
impl ThreadEntry {
    /// `utime + stime` clock ticks of this task via the cached stat
    /// handle.  The sampler is the only caller, so the mutex is
    /// uncontended; a vanished task (open or read failure) yields `None`.
    fn cpu_ticks(&self) -> Option<u64> {
        use std::io::{Read, Seek, SeekFrom};
        let tid = self.tid?;
        let mut guard = self
            .stat_file
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if guard.is_none() {
            *guard = std::fs::File::open(format!("/proc/self/task/{tid}/stat")).ok();
        }
        let file = guard.as_mut()?;
        file.seek(SeekFrom::Start(0)).ok()?;
        // The stat line is ~300 bytes; utime/stime (fields 14/15) sit
        // well inside the first read even if the tail were clipped.
        let mut buf = [0u8; 1024];
        let n = file.read(&mut buf).ok()?;
        parse_cpu_ticks(std::str::from_utf8(&buf[..n]).ok()?)
    }
}

fn thread_registry() -> &'static Mutex<Vec<Arc<ThreadEntry>>> {
    static THREADS: Mutex<Vec<Arc<ThreadEntry>>> = Mutex::new(Vec::new());
    &THREADS
}

/// Clears the `alive` flag when the owning thread exits, so the sampler
/// stops attributing samples to a dead (and possibly reused) tid.
struct Registration {
    entry: Arc<ThreadEntry>,
}

impl Drop for Registration {
    fn drop(&mut self) {
        self.entry.alive.store(false, Ordering::Release);
    }
}

thread_local! {
    static MY_THREAD: Registration = register_thread_entry();
}

fn register_thread_entry() -> Registration {
    let name = std::thread::current()
        .name()
        .map(String::from)
        .unwrap_or_else(|| format!("thread-{}", thread_ordinal()));
    let entry = Arc::new(ThreadEntry {
        name,
        tid: current_tid(),
        alive: AtomicBool::new(true),
        stack: ShadowStack::new(),
        last_cpu_ticks: AtomicU64::new(0),
        #[cfg(target_os = "linux")]
        stat_file: Mutex::new(None),
    });
    let mut registry = thread_registry()
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    // Short-lived threads (one per HTTP connection) register too; prune
    // the exited ones here so the list stays bounded with the sampler off.
    registry.retain(|e| e.alive.load(Ordering::Acquire));
    registry.push(Arc::clone(&entry));
    Registration { entry }
}

/// Register the calling thread with the profiler's thread registry.
///
/// Registration also happens implicitly on the first span a thread
/// opens; call this explicitly from long-lived worker threads (kernel
/// workers, the serve HTTP thread) so their *idle* time is attributed
/// to a named thread instead of never being sampled.
pub fn register_current_thread() {
    let _ = MY_THREAD.try_with(|_| {});
}

/// Push a span name onto the calling thread's shadow stack (called from
/// `span_enter` for every enabled span).
pub(crate) fn shadow_push(name: &'static str) {
    let _ = MY_THREAD.try_with(|reg| reg.entry.stack.push(name));
}

/// Pop the calling thread's shadow stack (called from `SpanGuard::drop`
/// for every span that pushed).
pub(crate) fn shadow_pop() {
    let _ = MY_THREAD.try_with(|reg| reg.entry.stack.pop());
}

#[cfg(target_os = "linux")]
fn current_tid() -> Option<u64> {
    extern "C" {
        fn syscall(num: i64, ...) -> i64;
    }
    // SYS_gettid: 186 on x86_64, 178 on aarch64.
    #[cfg(target_arch = "x86_64")]
    const SYS_GETTID: i64 = 186;
    #[cfg(target_arch = "aarch64")]
    const SYS_GETTID: i64 = 178;
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    return None;
    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    {
        let tid = unsafe { syscall(SYS_GETTID) };
        (tid > 0).then_some(tid as u64)
    }
}

#[cfg(not(target_os = "linux"))]
fn current_tid() -> Option<u64> {
    None
}

/// One-shot read of task `tid`'s CPU ticks by path — the reference the
/// cached-handle fast path is tested against.
#[cfg(all(test, target_os = "linux"))]
fn task_cpu_ticks(tid: u64) -> Option<u64> {
    let stat = std::fs::read_to_string(format!("/proc/self/task/{tid}/stat")).ok()?;
    parse_cpu_ticks(&stat)
}

/// Parses `utime + stime` (fields 14/15) out of a `/proc/.../stat`
/// line.  The comm field (2) may contain spaces, so parsing starts
/// after the last `)`.
#[cfg(target_os = "linux")]
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // rest starts at field 3 ("state"); utime/stime are fields 14/15.
    let mut it = rest.split_whitespace();
    let utime: u64 = it.nth(11)?.parse().ok()?;
    let stime: u64 = it.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Sampler-thread lifecycle state, guarded by one mutex so concurrent
/// `start`/`stop` calls (e.g. two serve instances in one test binary)
/// cannot race a spawn against a join.
struct Control {
    /// Outstanding `start` calls; the sampler runs while nonzero.
    starts: u32,
    worker: Option<std::thread::JoinHandle<()>>,
}

/// The global continuous profiler: owns the sampler thread and the
/// folded-stack accumulator.
pub struct Profiler {
    folded: Mutex<BTreeMap<String, u64>>,
    control: Mutex<Control>,
    running: AtomicBool,
    stop: AtomicBool,
    samples: AtomicU64,
    truncated: AtomicU64,
    hz: AtomicU32,
}

/// The process-wide profiler instance.
pub fn profiler() -> &'static Profiler {
    static PROFILER: Profiler = Profiler {
        folded: Mutex::new(BTreeMap::new()),
        control: Mutex::new(Control {
            starts: 0,
            worker: None,
        }),
        running: AtomicBool::new(false),
        stop: AtomicBool::new(false),
        samples: AtomicU64::new(0),
        truncated: AtomicU64::new(0),
        hz: AtomicU32::new(0),
    };
    &PROFILER
}

impl Profiler {
    /// Start (or keep running) the sampler thread at `hz` samples per
    /// second.  Starts are counted: every call with `hz > 0` must be
    /// paired with one [`stop`](Profiler::stop); the thread spawns on
    /// the first and joins on the last.  Returns `true` when this call
    /// actually spawned the sampler (`false` if `hz` is zero or a
    /// sampler was already running — an earlier caller's rate wins).
    pub fn start(&'static self, hz: u32) -> bool {
        if hz == 0 {
            return false;
        }
        let mut control = self.control.lock().unwrap_or_else(PoisonError::into_inner);
        control.starts += 1;
        if control.starts > 1 {
            return false;
        }
        self.stop.store(false, Ordering::SeqCst);
        self.hz.store(hz, Ordering::Relaxed);
        let period = Duration::from_nanos(1_000_000_000u64 / u64::from(hz));
        let handle = std::thread::Builder::new()
            .name("graphct-profiler".into())
            .spawn(move || {
                while !self.stop.load(Ordering::SeqCst) {
                    std::thread::sleep(period);
                    self.sample_all_threads();
                }
            })
            .expect("spawn profiler sampler thread");
        control.worker = Some(handle);
        self.running.store(true, Ordering::SeqCst);
        true
    }

    /// Undo one [`start`](Profiler::start); the sampler thread joins
    /// when the last outstanding start is undone.  No-op when not
    /// running.
    pub fn stop(&self) {
        let mut control = self.control.lock().unwrap_or_else(PoisonError::into_inner);
        if control.starts == 0 {
            return;
        }
        control.starts -= 1;
        if control.starts > 0 {
            return;
        }
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = control.worker.take() {
            let _ = handle.join();
        }
        self.running.store(false, Ordering::SeqCst);
    }

    /// Is the sampler thread running?
    pub fn is_running(&self) -> bool {
        self.running.load(Ordering::SeqCst)
    }

    /// Sampling rate of the current (or most recent) run.
    pub fn hz(&self) -> u32 {
        self.hz.load(Ordering::Relaxed)
    }

    /// Total samples captured since the last [`reset`](Profiler::reset).
    pub fn samples_total(&self) -> u64 {
        self.samples.load(Ordering::Relaxed)
    }

    /// Samples whose span stack overflowed the shadow depth.
    pub fn truncated_total(&self) -> u64 {
        self.truncated.load(Ordering::Relaxed)
    }

    /// The accumulated folded stacks, sorted by stack path.  Each key is
    /// `thread;span;…;span;[cpu|idle]` and each value a sample count.
    pub fn fold(&self) -> Vec<(String, u64)> {
        self.folded
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Clear the folded accumulator and the sample counters.
    pub fn reset(&self) {
        self.folded
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        self.samples.store(0, Ordering::Relaxed);
        self.truncated.store(0, Ordering::Relaxed);
    }

    /// One sampler tick: snapshot every live registered thread.
    fn sample_all_threads(&self) {
        let entries: Vec<Arc<ThreadEntry>> = {
            let mut reg = thread_registry()
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            reg.retain(|e| e.alive.load(Ordering::Acquire));
            reg.iter().map(Arc::clone).collect()
        };
        let mut local: Vec<(String, bool)> = Vec::with_capacity(entries.len());
        let mut truncated_now = 0u64;
        for entry in &entries {
            let Some((names, truncated)) = entry.stack.sample() else {
                continue;
            };
            if truncated {
                truncated_now += 1;
            }
            let mut key = String::with_capacity(
                entry.name.len() + 8 + names.iter().map(|n| n.len() + 1).sum::<usize>(),
            );
            key.push_str(&crate::analyze::fold_segment(&entry.name));
            for name in &names {
                key.push(';');
                key.push_str(&crate::analyze::fold_segment(name));
            }
            local.push((key, self.on_cpu(entry)));
        }
        let sampled = local.len() as u64;
        {
            let mut folded = self.folded.lock().unwrap_or_else(PoisonError::into_inner);
            for (mut key, on_cpu) in local {
                key.push_str(if on_cpu { ";[cpu]" } else { ";[idle]" });
                *folded.entry(key).or_insert(0) += 1;
            }
        }
        self.samples.fetch_add(sampled, Ordering::Relaxed);
        self.truncated.fetch_add(truncated_now, Ordering::Relaxed);
        // Session-gated registry counters: the profiler observes itself.
        PROFILE_SAMPLES_TOTAL.add(sampled);
        PROFILE_TRUNCATED_TOTAL.add(truncated_now);
    }

    /// Did `entry`'s task accumulate CPU time since the previous sample?
    /// Platforms without `/proc` report `true` (on-CPU).
    #[cfg(target_os = "linux")]
    fn on_cpu(&self, entry: &ThreadEntry) -> bool {
        let Some(now) = entry.cpu_ticks() else {
            return true;
        };
        let prev = entry.last_cpu_ticks.swap(now + 1, Ordering::Relaxed);
        prev == 0 || now + 1 > prev
    }

    #[cfg(not(target_os = "linux"))]
    fn on_cpu(&self, _entry: &ThreadEntry) -> bool {
        true
    }
}

/// Render folded stacks as `flamegraph.pl`/speedscope input text.
pub fn render_folded_counts(stacks: &[(String, u64)]) -> String {
    let mut out = String::new();
    for (key, count) in stacks {
        out.push_str(key);
        out.push(' ');
        out.push_str(&count.to_string());
        out.push('\n');
    }
    out
}

/// Per-leaf-frame self-time table: on-CPU sample counts attributed to
/// the innermost span frame (the `[cpu]`/`[idle]` state segment and the
/// root thread segment are stripped).  Sorted by count, descending.
pub fn self_time_top(stacks: &[(String, u64)], n: usize) -> Vec<(String, u64)> {
    let mut by_leaf: BTreeMap<&str, u64> = BTreeMap::new();
    for (key, count) in stacks {
        let mut segments: Vec<&str> = key.split(';').collect();
        let on_cpu = match segments.last() {
            Some(&"[cpu]") => {
                segments.pop();
                true
            }
            Some(&"[idle]") => {
                segments.pop();
                false
            }
            _ => true,
        };
        if !on_cpu || segments.len() < 2 {
            continue; // idle sample, or no span frames (thread root only)
        }
        let leaf = segments[segments.len() - 1];
        *by_leaf.entry(leaf).or_insert(0) += count;
    }
    let mut rows: Vec<(String, u64)> = by_leaf
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    rows.truncate(n);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc as StdArc;

    #[test]
    fn push_pop_balance_and_sample() {
        let stack = ShadowStack::new();
        stack.push("a");
        stack.push("b");
        let (names, truncated) = stack.sample().expect("uncontended sample");
        assert_eq!(names, vec!["a", "b"]);
        assert!(!truncated);
        stack.pop();
        let (names, _) = stack.sample().unwrap();
        assert_eq!(names, vec!["a"]);
        stack.pop();
        let (names, _) = stack.sample().unwrap();
        assert!(names.is_empty());
        // Unbalanced pop must not underflow.
        stack.pop();
        assert_eq!(stack.depth.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn deep_stacks_report_truncation() {
        let stack = ShadowStack::new();
        for _ in 0..SHADOW_DEPTH + 3 {
            stack.push("deep");
        }
        let (names, truncated) = stack.sample().unwrap();
        assert_eq!(names.len(), SHADOW_DEPTH);
        assert!(truncated);
        for _ in 0..SHADOW_DEPTH + 3 {
            stack.pop();
        }
        let (names, truncated) = stack.sample().unwrap();
        assert!(names.is_empty());
        assert!(!truncated);
    }

    #[test]
    fn sampler_folds_live_spans() {
        let session = crate::Session::start(StdArc::new(crate::NullSink));
        let prof = profiler();
        prof.reset();
        assert!(prof.start(500), "sampler should start");
        assert!(!prof.start(500), "second start reuses the running sampler");
        prof.stop(); // undo the second start; the sampler keeps running
        assert!(prof.is_running());
        {
            let _outer = crate::span!("prof_outer");
            let _inner = crate::span!("prof_inner");
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            loop {
                let folded = prof.fold();
                if folded
                    .iter()
                    .any(|(k, _)| k.contains("prof_outer;prof_inner"))
                {
                    break;
                }
                assert!(
                    std::time::Instant::now() < deadline,
                    "sampler never saw the open spans: {folded:?}"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        prof.stop();
        assert!(!prof.is_running());
        assert!(prof.samples_total() > 0);
        // Every folded key ends in a state segment and starts with a
        // thread name.
        for (key, count) in prof.fold() {
            assert!(count > 0);
            assert!(
                key.ends_with(";[cpu]") || key.ends_with(";[idle]"),
                "missing state segment: {key}"
            );
        }
        session.finish();
        prof.reset();
        assert_eq!(prof.samples_total(), 0);
        assert!(prof.fold().is_empty());
    }

    #[test]
    fn self_time_strips_thread_and_state() {
        let stacks = vec![
            ("main;bc;bc_forward;[cpu]".to_string(), 10),
            ("main;bc;[cpu]".to_string(), 4),
            ("main;bc;bc_forward;[idle]".to_string(), 99),
            ("worker;bc;bc_forward;[cpu]".to_string(), 7),
            ("main;[idle]".to_string(), 50),
        ];
        let top = self_time_top(&stacks, 10);
        assert_eq!(
            top,
            vec![("bc_forward".to_string(), 17), ("bc".to_string(), 4)]
        );
        let top1 = self_time_top(&stacks, 1);
        assert_eq!(top1.len(), 1);
        assert_eq!(top1[0].0, "bc_forward");
    }

    #[test]
    fn render_folded_counts_round_trips() {
        let stacks = vec![
            ("main;a;[cpu]".to_string(), 3),
            ("main;a;b;[idle]".to_string(), 1),
        ];
        let text = render_folded_counts(&stacks);
        let parsed = crate::analyze::parse_folded(&text).unwrap();
        assert_eq!(parsed, stacks);
    }

    /// Stress test: worker threads open/close strictly nested spans
    /// while this thread folds concurrently; a torn read would manifest
    /// as a child frame without its parent in some sampled stack.
    #[test]
    fn concurrent_sampling_never_tears() {
        use std::sync::atomic::AtomicBool;
        let stop = StdArc::new(AtomicBool::new(false));
        let entry = StdArc::new(ThreadEntry {
            name: "stress".into(),
            tid: None,
            alive: AtomicBool::new(true),
            stack: ShadowStack::new(),
            last_cpu_ticks: AtomicU64::new(0),
            #[cfg(target_os = "linux")]
            stat_file: Mutex::new(None),
        });
        // Distinct static names so parent/child ordering is checkable.
        const NAMES: [&str; 4] = ["s_root", "s_mid", "s_leaf", "s_deep"];
        let writer = {
            let entry = StdArc::clone(&entry);
            let stop = StdArc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    for name in NAMES {
                        entry.stack.push(name);
                    }
                    for _ in 0..NAMES.len() {
                        entry.stack.pop();
                    }
                }
            })
        };
        let deadline = std::time::Instant::now() + Duration::from_millis(500);
        let mut validated = 0u64;
        while std::time::Instant::now() < deadline {
            if let Some((names, truncated)) = entry.stack.sample() {
                assert!(!truncated);
                // The sampled stack must be a prefix of the nesting
                // order: frame i must be NAMES[i].
                for (i, name) in names.iter().enumerate() {
                    assert_eq!(
                        *name, NAMES[i],
                        "torn stack: child without parent in {names:?}"
                    );
                }
                validated += 1;
            }
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
        assert!(validated > 100, "sampler starved: {validated} samples");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn task_cpu_ticks_reads_own_task() {
        let tid = current_tid().expect("gettid on linux");
        // Burn a little CPU so the counter is nonzero-ish (not asserted:
        // clock ticks are coarse), then read it twice monotonically.
        let a = task_cpu_ticks(tid).expect("stat readable");
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_add(i ^ x);
        }
        std::hint::black_box(x);
        let b = task_cpu_ticks(tid).expect("stat readable");
        assert!(b >= a);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn cached_stat_handle_agrees_with_one_shot_read() {
        let entry = StdArc::new(ThreadEntry {
            name: "cached-stat-test".into(),
            tid: current_tid(),
            alive: AtomicBool::new(true),
            stack: ShadowStack::new(),
            last_cpu_ticks: AtomicU64::new(0),
            stat_file: Mutex::new(None),
        });
        let tid = entry.tid.expect("gettid on linux");
        // First call opens the fd, later calls seek+reread it; both must
        // parse, stay monotone, and bracket the one-shot path read.
        let a = entry.cpu_ticks().expect("cached stat readable");
        let one_shot = task_cpu_ticks(tid).expect("stat readable by path");
        let b = entry.cpu_ticks().expect("cached fd rereadable");
        assert!(one_shot >= a);
        assert!(b >= one_shot);
    }
}
