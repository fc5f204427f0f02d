//! Pieces every workload shares: the seeded generator, the tally of
//! checked operations, process memory, and the per-run arguments.

use std::collections::BTreeMap;
use std::path::PathBuf;

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    pub trace: bool,
    /// Small inputs and short phases, for `cargo test`.
    pub quick: bool,
    /// Scratch files and trace dumps go here (inside the checkout).
    pub out_dir: PathBuf,
}

/// What a workload measured, before `main` folds it into the named
/// end-to-end and per-layer metrics.
#[derive(Debug)]
pub struct Measured {
    /// One entry per set-up performed, seconds.
    pub setup_s: Vec<f64>,
    /// Time to each answer of the workload's cheap and of its expensive
    /// class (README.md says which is which per workload), milliseconds:
    /// one per rep (offline) or per request from its intended send time
    /// (serve).
    pub light_ms: Vec<f64>,
    pub heavy_ms: Vec<f64>,
    /// Work completed per second of the measured phase.
    pub throughput_per_s: f64,
    /// Per-layer numbers by metric name, for the layers this workload ran.
    pub layers: BTreeMap<&'static str, f64>,
    /// Facts about the run that are not metrics (input sizes, thread and
    /// rep counts).
    pub notes: Vec<(String, String)>,
}

/// Operations attempted and failed: oracle checks for every workload,
/// plus every request for the serve workloads.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    /// Wrong answers and late ones.
    pub failed: u64,
    /// Wrong answers alone: what makes a run incorrect.
    pub wrong: u64,
    /// The first few failures, for the report.
    pub messages: Vec<String>,
}

impl Checks {
    /// Count one attempted operation, wrong unless `ok`.
    pub fn check(&mut self, what: impl FnOnce() -> String, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.wrong += 1;
            self.fail(what);
        }
    }

    /// Count one attempted request whose answer was right, failed all the
    /// same if it came `late`: it did not serve its user, but the program
    /// computed nothing wrong.
    pub fn check_in_time(&mut self, what: impl FnOnce() -> String, late: bool) {
        self.attempted += 1;
        if late {
            self.fail(what);
        }
    }

    fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.messages.len() < 8 {
            self.messages.push(what());
        }
    }
}

/// SplitMix64: the benchmark's own generator, so inputs depend on the
/// seed and on nothing in the toolkit.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }
}

/// Zipf-like rank in `0..n` from a uniform `draw` in `[0, 1)`: rank
/// `n^draw − 1`, so low ranks come up far more often (half the draws
/// land in the first `√n`).  The serve workloads rank vertices by id:
/// the accounts interned first are the hubs, and they are asked about
/// most.
pub fn zipf_rank(draw: f64, n: usize) -> usize {
    (((n.max(1) as f64).powf(draw) - 1.0) as usize).min(n.saturating_sub(1))
}

/// Load every processor for `span` before anything is timed.
///
/// The virtual machine this was written on has two speeds: after a few
/// minutes of idling or light load the same binary on the same seed runs
/// 1.3 to 1.5 times slower (`serve_ingest` heavy p50 12.5 ms against
/// 8.5 ms), and a few seconds of full load on all processors put it back
/// into the fast state, which a run then keeps for its length.  Without
/// this, which state a run meets depends on what ran before it, and the
/// two passes of an acceptance check can differ by more than any bound.
pub fn warm_machine(span: std::time::Duration) {
    let until = std::time::Instant::now() + span;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut x = 0u64;
                while std::time::Instant::now() < until {
                    for i in 0..10_000u64 {
                        x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
                    }
                }
            });
        }
    });
}

/// Run `f`, returning its result and how many seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// A `Vm*` line of `/proc/self/status`, in MiB.
fn status_mib(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:").unwrap_or(0.0)
}

/// CPU time this process has used so far (user + system), seconds.
/// `/proc/self/stat` counts it in clock ticks, 100 per second on Linux.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line, so the 12th and 13th after it.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: f64 = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|t| t.parse::<f64>().ok())
        .sum();
    ticks / 100.0
}

/// Time this workload's set-up `n` more times, each in a child process
/// (`bench setup-probe`) that performs it, prints how long it took and
/// exits: repeated set-ups in this process would leave its allocator and
/// peak memory in a state no single run of the workload has.
pub fn probe_setups(args: &RunArgs, n: usize) -> Vec<f64> {
    let exe = std::env::current_exe().expect("own executable path");
    (0..n)
        .map(|_| {
            let out = std::process::Command::new(&exe)
                .arg("setup-probe")
                .arg(&args.workload)
                .arg(args.seed.to_string())
                .arg(if args.quick { "1" } else { "0" })
                .output()
                .expect("spawn set-up probe");
            assert!(out.status.success(), "set-up probe failed: {}", out.status);
            String::from_utf8_lossy(&out.stdout)
                .trim()
                .parse::<f64>()
                .expect("set-up probe prints its seconds")
        })
        .collect()
}

/// OS threads of this process right now.
fn os_threads() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(1, |d| d.count())
}

/// Largest number of extra OS threads alive while `work` runs, plus one
/// for the caller: the thread count the kernels actually got, whatever
/// pool (persistent or scoped) sits under `rayon` today.
pub fn threads_during<T>(work: impl FnOnce() -> T) -> (T, usize) {
    use std::sync::atomic::{AtomicBool, Ordering};
    let before = os_threads();
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let watcher = scope.spawn(|| {
            let mut most = 0usize;
            while !done.load(Ordering::Relaxed) {
                most = most.max(os_threads());
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            most
        });
        let out = work();
        done.store(true, Ordering::Relaxed);
        let most = watcher.join().expect("thread watcher panicked");
        // The watcher itself is one of the threads it counted.
        (out, most.saturating_sub(before + 1) + 1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded_and_zipf_prefers_low_ranks() {
        let draw = |seed| {
            let mut r = Rng::new(seed, 1);
            (0..1000)
                .map(|_| zipf_rank(r.unit(), 10_000))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let low = draw(7).iter().filter(|&&v| v < 100).count();
        assert!(low > 400, "half the draws land in the first 1%: {low}");
        assert!(draw(7).iter().all(|&v| v < 10_000));
        let mut r = Rng::new(1, 2);
        assert!((0..1000).all(|_| r.below(3) < 3));
        assert_eq!(zipf_rank(0.0, 1000), 0);
        assert_eq!(zipf_rank(0.999_999, 1000), 998);
        assert_eq!(zipf_rank(0.5, 10_000), 99);
        assert_eq!(zipf_rank(0.5, 0), 0);
    }

    #[test]
    fn checks_tally_attempts_and_failures() {
        let mut c = Checks::default();
        c.check(|| "fine".into(), true);
        c.check(|| "broken".into(), false);
        c.check_in_time(|| "on time".into(), false);
        c.check_in_time(|| "late".into(), true);
        assert_eq!((c.attempted, c.failed, c.wrong), (4, 2, 1));
        assert_eq!(c.messages, vec!["broken".to_owned(), "late".to_owned()]);
    }
}
