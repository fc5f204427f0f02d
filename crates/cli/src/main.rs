//! `graphct` — command-line front end.
//!
//! Mirrors how an analyst drives GraphCT: run an analysis script over a
//! graph file, generate synthetic graphs or tweet corpora, or fire a
//! single kernel.  Run `graphct help` for usage.

use graphct_core::builder::build_undirected_simple;
use graphct_core::{CompressedCsr, CsrGraph, EdgeList, GraphView, MmapCsr};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

/// Counting allocator so traced runs report peak live bytes
/// (`peak_live_bytes` gauge in every metrics export).
#[global_allocator]
static ALLOC: graphct_trace::CountingAllocator = graphct_trace::CountingAllocator;

const USAGE: &str = "graphct — massive social network analysis toolkit

USAGE:
  graphct script <file> [--base-dir DIR]       run a GraphCT analysis script
  graphct gen rmat --scale S [--edge-factor F] [--seed N] --out FILE
  graphct gen er --vertices N --edges M [--seed N] --out FILE
  graphct gen ba --vertices N --attach M [--seed N] --out FILE
  graphct tweets <h1n1|atlflood|sep1> [--scale-pct P] [--seed N] --out FILE
                                               generate a synthetic tweet
                                               mention graph
  graphct stats <graph> [--frontier KIND] [--alpha A] [--beta B]
                [--reorder PASS] [--batch K] [--backend B]
                                               degrees, components, diameter
  graphct components <graph> [--top K] [--reorder PASS] [--backend B]
                                               connected components summary
  graphct bc <graph> [--samples N] [--seed N] [--top K]
              [--frontier KIND] [--alpha A] [--beta B] [--reorder PASS]
              [--batch K] [--backend B]        (approximate) betweenness
  graphct triangles <graph> [--top K] [--reorder PASS] [--backend B]
                                               forward triangle counts, per-
                                               vertex clustering, transitivity
  graphct triangles <graph> --census           16-class Holland-Leinhardt
                                               triad census (directed graphs)
  graphct convert <in> <out.bin>               rewrite any graph file as a
                                               format-v2 binary (the layout
                                               --backend mmap maps in place)
  graphct serve [--profile h1n1|atlflood|sep1] [--scale-pct P] [--seed N]
                [--port P | --addr HOST:PORT] [--batch-size N] [--batches N]
                [--interval-ms MS] [--window N] [--trace-out FILE]
                [--stall-timeout-ms MS] [--profile-hz HZ]
                [--snapshot-every N] [--query-threads N] [--topk K]
                                               live monitoring + query plane:
                                               paced tweet-stream ingest with
                                               epoch-tagged snapshot freezes
                                               served over HTTP; Ctrl-C
                                               drains; a stall past the
                                               watchdog deadline turns
                                               /healthz 503
  graphct trace flame <trace.jsonl> [--out FILE]
                                               folded stacks (flamegraph input)
  graphct trace critical-path <trace.jsonl>    slowest span chains
  graphct trace imbalance <trace.jsonl>        per-level BFS push/pull spread
  graphct trace histo <trace.jsonl> [--name H] list histograms (name, count,
                                               p50/p99); --name H shows the
                                               detailed ASCII chart
  graphct trace promcheck <metrics.txt>        validate Prometheus exposition
  graphct help

BFS tuning (stats, bc): --frontier is one of push|pull|hybrid
(default hybrid); --alpha / --beta set the direction-optimizing switch
thresholds (push->pull when frontier edges exceed unexplored/alpha,
pull->push when the frontier shrinks below vertices/beta).

Locality (stats, components, bc, triangles): --reorder relabels vertices
before the kernels run — none (default) | degree (hubs first) | rcm
(BFS bandwidth reduction) | shuffle (randomized baseline).  All output
is reported in the original vertex ids; only the in-memory layout
changes.  Degree ordering also tightens the triangle counter's forward
orientation, so it is a genuine speedup there, not just a cache effect.

Batched traversal (stats, bc): --batch K runs BFS sources through the
bit-parallel multi-source engine, K sources (max 64) per adjacency
scan.  stats defaults to 64; bc defaults to 1 (classic per-source
Brandes); batched bc holds one wave of 64 sources' distances at a time.
Results are identical at every K.

Storage backends (stats, components, bc, triangles): --backend selects how the
graph is held while the kernels run — plain (default, heap CSR) | mmap
(zero-copy view over a format-v2 .bin file; see `graphct convert`) |
compressed (delta-encoded varint adjacency, decoded on the fly).
Results are identical across backends; betweenness materializes a heap
CSR first.  --reorder requires --backend plain.  stats also reports
backend memory observability: mincore(2) page residency before/after
traversal for mmap, decode-work counters for compressed, RSS for both
(exported as gauges — graphct_mmap_resident_bytes etc. — under
--trace).

Telemetry (any command): --trace turns on kernel telemetry and prints a
hierarchical timing summary to stderr at exit; --trace-out FILE streams
JSON-lines events to FILE; --metrics-format json|prom|summary selects
the export (json requires --trace-out; prom writes Prometheus text to
--trace-out or stdout; summary writes to --trace-out when given, else
stderr).

Profiling (stats, components, bc): --profile turns on the continuous
wall-clock sampler and prints an ASCII flamegraph to stderr at exit;
--profile-hz HZ overrides the default 97 Hz rate; --profile-out FILE
also writes the raw folded stacks (speedscope / flamegraph.pl input)
to FILE.  `graphct serve` samples continuously
by default and exposes the live folded stacks at /profile (plain text
for flamegraph.pl/speedscope; ?format=json, ?format=top variants);
--profile-hz 0 disables.

Graph files (read, and written by gen/tweets --out): *.bin = GraphCT
binary CSR, *.gr/*.dimacs = DIMACS, anything else = 'src dst' edge-list
text.";

/// Printed by `graphct serve --help` and appended to the global help.
const SERVE_USAGE: &str = "graphct serve — live monitoring + query plane

USAGE:
  graphct serve [--profile h1n1|atlflood|sep1] [--scale-pct P] [--seed N]
                [--port P | --addr HOST:PORT] [--batch-size N] [--batches N]
                [--interval-ms MS] [--window N] [--trace-out FILE]
                [--stall-timeout-ms MS] [--profile-hz HZ]
                [--snapshot-every N] [--query-threads N] [--topk K]

The ingest loop freezes an epoch-tagged CSR snapshot every
--snapshot-every batches (default 8; 0 = on demand only); queries answer
from the latest freeze (--query-threads N: at most N queries run at
once, default 2; connections are kept alive) and wrap every response in
the versioned envelope
{\"v\":1,\"epoch\":E,\"staleness_s\":S,\"data\":...|\"error\":...}.
Each freeze also sets the graphct_window_components gauge, so with
--snapshot-every 0 it moves only when /v1/snapshot/refresh asks.

  GET /metrics                        Prometheus exposition (live)
  GET /healthz                        200 ok | 503 stalled/draining
  GET /progress                       JSON span stacks, progress, ETAs
  GET /profile[?format=json|top]      live folded stacks
  GET /pause, /resume                 freeze/unfreeze ingest (stall test)
  GET /v1/query/topk[?k=K&samples=N]  top-k influencers by sampled
                                      betweenness on the frozen epoch
                                      (k defaults to --topk)
  GET /v1/query/component?vertex=V|user=NAME
                                      component id + size
  GET /v1/query/degree?vertex=V|user=NAME
                                      degree and reach (component - 1)
  GET /v1/query/ego?vertex=V|user=NAME
                                      one-hop ego net, induced edges
  GET /v1/snapshot                    current freeze metadata
  GET /v1/snapshot/refresh            request a fresh freeze next batch";

/// The `run` error for a stdout whose reader has gone away
/// (`graphct bc G.bin | head -1`): the command stops there and exits
/// quietly, as Unix filters do.
const STDOUT_CLOSED: &str = "stdout closed";

fn stdout_error(e: std::io::Error) -> String {
    if e.kind() == std::io::ErrorKind::BrokenPipe {
        STDOUT_CLOSED.into()
    } else {
        format!("cannot write to stdout: {e}")
    }
}

/// `writeln!` to the command's stdout writer, as a `run` error instead
/// of `println!`'s panic.
macro_rules! outln {
    ($out:expr, $($arg:tt)*) => {
        writeln!($out, $($arg)*).map_err(stdout_error)
    };
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // One locked writer for everything the command prints.
    match run(&args, &mut std::io::stdout().lock()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) if msg == STDOUT_CLOSED => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Pull a bare `--switch` out of an argument list; giving it twice is
/// an error.
fn take_switch(args: &mut Vec<String>, switch: &str) -> Result<bool, String> {
    let Some(pos) = args.iter().position(|a| a == switch) else {
        return Ok(false);
    };
    args.remove(pos);
    if args.iter().any(|a| a == switch) {
        return Err(format!("{switch} given more than once"));
    }
    Ok(true)
}

/// Pull `--flag value` out of an argument list. A flag present without
/// a following value, or given twice, is an error, not an absent flag.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(pos) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if args.get(pos + 1).is_none_or(|v| v.starts_with("--")) {
        return Err(format!("{flag} requires a value"));
    }
    let value = args.remove(pos + 1);
    take_switch(args, flag)?;
    Ok(Some(value))
}

fn parse_value<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value
        .parse()
        .map_err(|e| format!("invalid value for {flag} '{value}': {e}"))
}

fn parse_flag<T: std::str::FromStr>(
    args: &mut Vec<String>,
    flag: &str,
    default: T,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    take_flag(args, flag)?.map_or(Ok(default), |v| parse_value(flag, &v))
}

fn require_flag<T: std::str::FromStr>(args: &mut Vec<String>, flag: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let value = take_flag(args, flag)?.ok_or_else(|| format!("missing required flag {flag}"))?;
    parse_value(flag, &value)
}

/// Called once a subcommand has taken all its flags: anything left over
/// is a typo or an option the subcommand does not have.
fn finish_args(args: &[String]) -> Result<(), String> {
    match args.first() {
        Some(extra) => Err(format!("unexpected argument '{extra}'")),
        None => Ok(()),
    }
}

/// Parse the shared BFS direction-optimization flags
/// (`--frontier`, `--alpha`, `--beta`) into a [`BfsConfig`].
fn parse_bfs_flags(args: &mut Vec<String>) -> Result<graphct_kernels::BfsConfig, String> {
    let kind: graphct_kernels::FrontierKind =
        parse_flag(args, "--frontier", graphct_kernels::FrontierKind::Hybrid)?;
    let mut config = graphct_kernels::BfsConfig::from_kind(kind);
    config.alpha = parse_flag(args, "--alpha", config.alpha)?;
    config.beta = parse_flag(args, "--beta", config.beta)?;
    if config.alpha <= 0.0 || config.beta <= 0.0 {
        return Err("--alpha and --beta must be positive".into());
    }
    Ok(config)
}

/// Consume `--reorder`: which locality pass to run before the kernels.
/// The caller builds a [`graphct_core::ReorderedView`] from the loaded
/// graph, runs the kernels on `view.graph()`, and maps results back to
/// original vertex ids through the view before printing.
fn parse_reorder_flag(args: &mut Vec<String>) -> Result<graphct_core::ReorderKind, String> {
    parse_flag(args, "--reorder", graphct_core::ReorderKind::None)
}

/// Consume the telemetry flags (`--trace`, `--trace-out`,
/// `--metrics-format`) and start a [`graphct_trace::Session`] when any
/// of them asks for one.  The returned guard flushes the chosen sink on
/// drop, after the command has produced its output.
fn start_trace(args: &mut Vec<String>) -> Result<Option<graphct_trace::Session>, String> {
    let trace = take_switch(args, "--trace")?;
    let trace_out = take_flag(args, "--trace-out")?.map(PathBuf::from);
    let format = take_flag(args, "--metrics-format")?;
    if !trace && trace_out.is_none() && format.is_none() {
        return Ok(None);
    }
    // --trace-out with no explicit format means JSON-lines; bare --trace
    // means the human-readable summary.
    let format = format.unwrap_or_else(|| {
        if trace_out.is_some() {
            "json".to_string()
        } else {
            "summary".to_string()
        }
    });
    let sink: Arc<dyn graphct_trace::Sink> = match format.as_str() {
        "json" => {
            let path = trace_out
                .as_ref()
                .ok_or("--metrics-format json requires --trace-out FILE")?;
            Arc::new(
                graphct_trace::JsonLinesSink::create(path)
                    .map_err(|e| format!("cannot create {}: {e}", path.display()))?,
            )
        }
        "prom" => match trace_out.as_ref() {
            Some(path) => Arc::new(
                graphct_trace::PrometheusSink::create(path)
                    .map_err(|e| format!("cannot create {}: {e}", path.display()))?,
            ),
            None => Arc::new(graphct_trace::PrometheusSink::to_stdout()),
        },
        "summary" => match trace_out.as_ref() {
            Some(path) => Arc::new(
                graphct_trace::SummarySink::create(path)
                    .map_err(|e| format!("cannot create {}: {e}", path.display()))?,
            ),
            None => Arc::new(graphct_trace::SummarySink::to_stderr()),
        },
        other => {
            return Err(format!(
                "unknown --metrics-format '{other}' (json|prom|summary)"
            ))
        }
    };
    Ok(Some(graphct_trace::Session::start(sink)))
}

/// Stops the continuous profiler when the command finishes and prints
/// the ASCII flamegraph (stderr, like the `--trace` summary).  A Drop
/// guard so early error returns still stop the sampler thread.
struct ProfilerGuard {
    out: Option<PathBuf>,
    /// The fallback [`NullSink`](graphct_trace::NullSink) session when
    /// the user profiled without `--trace`.  Held here so it outlives
    /// the flamegraph print (Drop bodies run before fields drop).
    _session: Option<graphct_trace::Session>,
}

impl Drop for ProfilerGuard {
    fn drop(&mut self) {
        let prof = graphct_trace::profiler();
        prof.stop();
        let folded = prof.fold();
        eprintln!(
            "continuous profile: {} samples at {} Hz ({} truncated)",
            prof.samples_total(),
            prof.hz(),
            prof.truncated_total()
        );
        eprint!(
            "{}",
            graphct_trace::analyze::render_ascii_flame(&folded, 60)
        );
        if let Some(path) = &self.out {
            let text = graphct_trace::profile::render_folded_counts(&folded);
            match std::fs::write(path, &text) {
                Ok(()) => eprintln!("wrote {} folded stacks to {}", folded.len(), path.display()),
                Err(e) => eprintln!("cannot write {}: {e}", path.display()),
            }
        }
    }
}

/// Consume the profiler flags (`--profile`, `--profile-hz`,
/// `--profile-out`) and start the continuous wall-clock sampler when
/// any of them asks for one.  Shadow stacks only record open spans
/// while a trace session is enabled, so when the user asked for a
/// profile without `--trace` the caller starts a [`NullSink`] session
/// (counters and shadow frames, no event stream).
fn start_profiler(
    args: &mut Vec<String>,
    have_session: bool,
) -> Result<Option<ProfilerGuard>, String> {
    let switch = take_switch(args, "--profile")?;
    let hz: Option<u32> = take_flag(args, "--profile-hz")?
        .map(|v| parse_value("--profile-hz", &v))
        .transpose()?;
    let out = take_flag(args, "--profile-out")?.map(PathBuf::from);
    if !switch && hz.is_none() && out.is_none() {
        return Ok(None);
    }
    let hz = hz.unwrap_or(graphct_trace::profile::DEFAULT_HZ);
    if hz == 0 {
        return Err("--profile-hz must be positive (omit --profile to disable)".into());
    }
    let session = if have_session {
        None
    } else {
        Some(graphct_trace::Session::start(Arc::new(
            graphct_trace::NullSink,
        )))
    };
    graphct_trace::profiler().start(hz);
    Ok(Some(ProfilerGuard {
        out,
        _session: session,
    }))
}

/// Resolve a tweet dataset profile by name, with optional percentage
/// scaling (shared by `tweets` and `serve`).
fn parse_profile(name: &str, scale_pct: f64) -> Result<graphct_twitter::DatasetProfile, String> {
    let profile = match name {
        "h1n1" => graphct_twitter::DatasetProfile::h1n1(),
        "atlflood" => graphct_twitter::DatasetProfile::atlflood(),
        "sep1" => graphct_twitter::DatasetProfile::sep1(),
        other => return Err(format!("unknown profile '{other}'")),
    };
    Ok(if scale_pct < 100.0 {
        profile.scaled(scale_pct / 100.0)
    } else {
        profile
    })
}

/// `graphct serve`: run the live monitoring plane until the batch budget
/// is exhausted or SIGINT asks for a drain.
fn serve_cmd(args: &mut Vec<String>, stdout: &mut dyn Write) -> Result<(), String> {
    if args
        .iter()
        .any(|a| a == "--help" || a == "-h" || a == "help")
    {
        outln!(stdout, "{SERVE_USAGE}")?;
        return Ok(());
    }
    let profile_name = take_flag(args, "--profile")?.unwrap_or_else(|| "atlflood".into());
    let scale_pct: f64 = parse_flag(args, "--scale-pct", 100.0)?;
    let profile = parse_profile(&profile_name, scale_pct)?;
    let seed: u64 = parse_flag(args, "--seed", 42)?;
    let port: u16 = parse_flag(args, "--port", 9090)?;
    let addr = take_flag(args, "--addr")?.unwrap_or_else(|| format!("127.0.0.1:{port}"));
    let batch_size: usize = parse_flag(args, "--batch-size", 64)?;
    let batches: u64 = parse_flag(args, "--batches", 0)?;
    let interval_ms: u64 = parse_flag(args, "--interval-ms", 50)?;
    let window_batches: usize = parse_flag(args, "--window", 256)?;
    let trace_out = take_flag(args, "--trace-out")?.map(PathBuf::from);
    let stall_timeout_ms: u64 = parse_flag(args, "--stall-timeout-ms", 10_000)?;
    let profile_hz: u32 = parse_flag(args, "--profile-hz", graphct_trace::profile::DEFAULT_HZ)?;
    let snapshot_every: u64 = parse_flag(args, "--snapshot-every", 8)?;
    let query_threads: usize = parse_flag(args, "--query-threads", 2)?;
    let topk: usize = parse_flag(args, "--topk", 10)?;
    finish_args(args)?;

    graphct_obs::install_sigint_handler();
    let handle = graphct_obs::start(graphct_obs::ServeConfig {
        addr: addr.clone(),
        profile,
        seed,
        batch_size,
        batches,
        interval_ms,
        window_batches,
        trace_out,
        stall_timeout_ms,
        profile_hz,
        snapshot_every,
        query_threads,
        topk,
    })
    .map_err(|e| format!("cannot serve on {addr}: {e}"))?;
    outln!(
        stdout,
        "serving http://{}  endpoints: /metrics /healthz /progress /profile /pause /resume \
         /v1/query/{{topk,component,degree,ego}} /v1/snapshot /v1/snapshot/refresh",
        handle.local_addr()
    )?;
    outln!(
        stdout,
        "ingesting {profile_name} (seed {seed}): batch {batch_size} mentions every {interval_ms}ms, \
         sliding window {window_batches} batches{}",
        if batches == 0 {
            ", endless (Ctrl-C to drain)".to_string()
        } else {
            format!(", {batches} batches")
        }
    )?;
    while !graphct_obs::sigint_received() && !handle.ingest_finished() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    if graphct_obs::sigint_received() {
        eprintln!("SIGINT: draining...");
    }
    let stats = handle.wait();
    outln!(
        stdout,
        "drained: {} batches, {} mentions, {} edges inserted, {} expired, {} errors",
        stats.batches,
        stats.mentions,
        stats.edges_inserted,
        stats.edges_expired,
        stats.ingest_errors
    )?;
    Ok(())
}

/// Read and parse a JSON-lines trace produced by `--trace-out`.
fn load_trace(path: &Path) -> Result<Vec<graphct_trace::analyze::Rec>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    graphct_trace::analyze::read_trace(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn next_path(args: &mut Vec<String>, what: &str) -> Result<PathBuf, String> {
    if args.is_empty() {
        return Err(format!("missing {what}"));
    }
    Ok(PathBuf::from(args.remove(0)))
}

/// `graphct trace`: offline analysis of recorded traces.
fn trace_cmd(args: &mut Vec<String>, stdout: &mut dyn Write) -> Result<(), String> {
    use graphct_trace::analyze;
    if args.is_empty() {
        return Err(
            "trace needs a subcommand (flame|critical-path|imbalance|histo|promcheck)".into(),
        );
    }
    let sub = args.remove(0);
    match sub.as_str() {
        "flame" => {
            let file = next_path(args, "trace file")?;
            let out = take_flag(args, "--out")?.map(PathBuf::from);
            finish_args(args)?;
            let folded = analyze::fold_stacks(&load_trace(&file)?);
            let text = analyze::render_folded(&folded);
            match out {
                Some(path) => {
                    std::fs::write(&path, &text)
                        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                    outln!(
                        stdout,
                        "wrote {} folded stacks to {}",
                        folded.len(),
                        path.display()
                    )?;
                }
                None => stdout.write_all(text.as_bytes()).map_err(stdout_error)?,
            }
            Ok(())
        }
        "critical-path" => {
            let file = next_path(args, "trace file")?;
            finish_args(args)?;
            let chains = analyze::critical_paths(&load_trace(&file)?);
            if chains.is_empty() {
                outln!(stdout, "no spans in trace")?;
                return Ok(());
            }
            for chain in &chains {
                let root_ns = chain[0].elapsed_ns.max(1);
                for (depth, node) in chain.iter().enumerate() {
                    outln!(
                        stdout,
                        "{:indent$}{}  {:.3}ms  ({:.1}% of {})",
                        "",
                        node.name,
                        node.elapsed_ns as f64 / 1e6,
                        100.0 * node.elapsed_ns as f64 / root_ns as f64,
                        chain[0].name,
                        indent = depth * 2
                    )?;
                }
            }
            Ok(())
        }
        "imbalance" => {
            let file = next_path(args, "trace file")?;
            finish_args(args)?;
            let report = analyze::level_imbalance(&load_trace(&file)?);
            if report.dirs.is_empty() {
                outln!(
                    stdout,
                    "no bfs_level telemetry in trace (run with --trace-out)"
                )?;
                return Ok(());
            }
            outln!(stdout, "{} BFS runs", report.runs)?;
            outln!(
                stdout,
                "{:<8} {:>7} {:>14} {:>14} {:>14} {:>8}",
                "dir",
                "levels",
                "edges",
                "max/level",
                "mean/level",
                "spread"
            )?;
            for d in &report.dirs {
                outln!(
                    stdout,
                    "{:<8} {:>7} {:>14} {:>14} {:>14.1} {:>8.2}",
                    d.direction,
                    d.levels,
                    d.total_edges,
                    d.max_edges,
                    d.mean_edges,
                    d.spread
                )?;
            }
            outln!(stdout, "heaviest levels:")?;
            for (level, dir, edges) in &report.heaviest {
                outln!(
                    stdout,
                    "  level {level:<4} {dir:<6} {edges} edges inspected"
                )?;
            }
            Ok(())
        }
        "histo" => {
            let file = next_path(args, "trace file")?;
            let name = take_flag(args, "--name")?;
            finish_args(args)?;
            let mut reports = analyze::collect_histograms(&load_trace(&file)?);
            if let Some(name) = &name {
                reports.retain(|r| &r.name == name);
                if reports.is_empty() {
                    return Err(format!("no histogram named '{name}' in trace"));
                }
            }
            if reports.is_empty() {
                outln!(
                    stdout,
                    "no histogram records in trace (run with --trace-out)"
                )?;
                return Ok(());
            }
            if name.is_none() {
                // Inventory view: one line per histogram family, so the
                // reader learns what is in the trace before drilling in
                // with --name.
                outln!(
                    stdout,
                    "{:<28} {:>10} {:>12} {:>12}",
                    "histogram",
                    "count",
                    "p50",
                    "p99"
                )?;
                for report in &reports {
                    outln!(
                        stdout,
                        "{:<28} {:>10} {:>12.0} {:>12.0}",
                        report.name,
                        report.count(),
                        report.quantile(0.5),
                        report.quantile(0.99)
                    )?;
                }
                return Ok(());
            }
            for report in &reports {
                let count = report.count();
                outln!(
                    stdout,
                    "{}: {} observations over {} record(s), sum {}",
                    report.name,
                    count,
                    report.records,
                    report.sum
                )?;
                outln!(
                    stdout,
                    "  p50 {:.0}  p90 {:.0}  p99 {:.0}  p999 {:.0}",
                    report.quantile(0.5),
                    report.quantile(0.9),
                    report.quantile(0.99),
                    report.quantile(0.999)
                )?;
                let peak = report.counts.iter().copied().max().unwrap_or(0).max(1);
                for (i, &c) in report.counts.iter().enumerate() {
                    if c == 0 {
                        continue;
                    }
                    let bar = "#".repeat(((c as f64 / peak as f64) * 40.0).ceil() as usize);
                    outln!(stdout, "  >= {:>12}  {:>10}  {bar}", report.edges[i], c)?;
                }
            }
            Ok(())
        }
        "promcheck" => {
            let file = next_path(args, "exposition file")?;
            finish_args(args)?;
            let text = std::fs::read_to_string(&file)
                .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
            match graphct_trace::schema::validate_exposition(&text) {
                Ok(samples) => {
                    outln!(stdout, "ok: {} ({samples} samples)", file.display())?;
                    Ok(())
                }
                Err((line, msg)) => Err(format!("{}:{line}: {msg}", file.display())),
            }
        }
        other => Err(format!(
            "unknown trace subcommand '{other}' \
             (flame|critical-path|imbalance|histo|promcheck)"
        )),
    }
}

fn load_graph(path: &Path) -> Result<CsrGraph, String> {
    let ext = path.extension().and_then(|e| e.to_str()).unwrap_or("");
    let graph = match ext {
        "bin" => graphct_core::io::binary::load(path).map_err(|e| e.to_string())?,
        "gr" | "dimacs" => {
            let parsed = graphct_core::io::dimacs::read_file(path).map_err(|e| e.to_string())?;
            graphct_core::GraphBuilder::undirected()
                .num_vertices(parsed.num_vertices)
                .build(&parsed.edges)
                .map_err(|e| e.to_string())?
        }
        _ => {
            let edges = graphct_core::io::edges_text::read_file(path).map_err(|e| e.to_string())?;
            build_undirected_simple(&edges).map_err(|e| e.to_string())?
        }
    };
    Ok(graph)
}

/// Load a graph keeping arc direction: each `src dst` line of an edge
/// list (and each DIMACS arc) is one directed arc.  `.bin` files carry
/// their own direction flag and load as stored.  The triad census needs
/// this — [`load_graph`] symmetrizes, which would collapse every census
/// onto the three undirected classes.
fn load_directed_graph(path: &Path) -> Result<CsrGraph, String> {
    let ext = path.extension().and_then(|e| e.to_str()).unwrap_or("");
    let graph = match ext {
        "bin" => graphct_core::io::binary::load(path).map_err(|e| e.to_string())?,
        "gr" | "dimacs" => {
            let parsed = graphct_core::io::dimacs::read_file(path).map_err(|e| e.to_string())?;
            graphct_core::GraphBuilder::directed()
                .num_vertices(parsed.num_vertices)
                .build(&parsed.edges)
                .map_err(|e| e.to_string())?
        }
        _ => {
            let edges = graphct_core::io::edges_text::read_file(path).map_err(|e| e.to_string())?;
            graphct_core::builder::build_directed_simple(&edges).map_err(|e| e.to_string())?
        }
    };
    Ok(graph)
}

/// Write `edges` in the format [`load_graph`] reads back from `path`'s
/// extension: `.bin` gets the CSR `load_graph` would build from the
/// edge-list text, DIMACS extensions get DIMACS, anything else text.
fn write_edges(path: &Path, edges: &EdgeList) -> Result<(), String> {
    match path.extension().and_then(|e| e.to_str()).unwrap_or("") {
        "bin" => {
            let graph = build_undirected_simple(edges).map_err(|e| e.to_string())?;
            graphct_core::io::binary::save(&graph, path)
        }
        "gr" | "dimacs" => {
            graphct_core::io::dimacs::write_file(path, edges.min_num_vertices(), edges)
        }
        _ => graphct_core::io::edges_text::write_file(path, edges),
    }
    .map_err(|e| e.to_string())
}

/// Which storage backend holds the graph while kernels run.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Backend {
    Plain,
    Mmap,
    Compressed,
}

fn parse_backend_flag(args: &mut Vec<String>) -> Result<Backend, String> {
    match take_flag(args, "--backend")?.as_deref() {
        None | Some("plain") => Ok(Backend::Plain),
        Some("mmap") => Ok(Backend::Mmap),
        Some("compressed") => Ok(Backend::Compressed),
        Some(other) => Err(format!(
            "unknown --backend '{other}' (plain|mmap|compressed)"
        )),
    }
}

/// A graph loaded through one of the storage backends.
enum BackendGraph {
    Plain(CsrGraph),
    Mapped(MmapCsr),
    Compressed(CompressedCsr),
}

fn load_backend(path: &Path, backend: Backend) -> Result<BackendGraph, String> {
    Ok(match backend {
        Backend::Plain => BackendGraph::Plain(load_graph(path)?),
        Backend::Mmap => {
            if path.extension().and_then(|e| e.to_str()) != Some("bin") {
                return Err(
                    "--backend mmap needs a format-v2 .bin graph (rewrite with `graphct convert`)"
                        .into(),
                );
            }
            BackendGraph::Mapped(MmapCsr::open(path).map_err(|e| e.to_string())?)
        }
        Backend::Compressed => {
            let g = load_graph(path)?;
            BackendGraph::Compressed(CompressedCsr::from_view(&g))
        }
    })
}

impl BackendGraph {
    fn num_vertices(&self) -> usize {
        match self {
            BackendGraph::Plain(g) => g.num_vertices(),
            BackendGraph::Mapped(m) => m.num_vertices(),
            BackendGraph::Compressed(c) => c.num_vertices(),
        }
    }

    fn num_edges(&self) -> usize {
        match self {
            BackendGraph::Plain(g) => g.num_edges(),
            BackendGraph::Mapped(m) => m.num_edges(),
            BackendGraph::Compressed(c) => c.num_edges(),
        }
    }

    /// One-line description of the non-default backends for the report
    /// header (`None` for plain).
    fn describe(&self) -> Option<String> {
        match self {
            BackendGraph::Plain(_) => None,
            BackendGraph::Mapped(m) => Some(format!(
                "backend: mmap ({} bytes served zero-copy from the page cache)",
                m.file_bytes()
            )),
            BackendGraph::Compressed(c) => Some(format!(
                "backend: compressed ({:.2} B/arc vs 4 plain)",
                c.bytes_per_arc()
            )),
        }
    }

    /// Materialize a heap CSR (for kernels that are not yet generic
    /// over `GraphView`, e.g. betweenness and the diameter estimator).
    fn to_plain(&self) -> CsrGraph {
        match self {
            BackendGraph::Plain(g) => g.clone(),
            BackendGraph::Mapped(m) => m.to_csr_graph(),
            BackendGraph::Compressed(c) => c.to_csr(),
        }
    }
}

/// Σ d(d−1)/2 over a view — the wedge count that normalizes global
/// transitivity.  `triangle_stats` computes this as a byproduct on heap
/// CSRs; the mmap/compressed paths recount it here.
fn wedge_count<G: GraphView>(graph: &G) -> usize {
    (0..graph.num_vertices() as u32)
        .map(|v| {
            let d = graph.degree(v);
            d * (d.saturating_sub(1)) / 2
        })
        .sum()
}

/// Shared body of `graphct stats`: degree and component summaries run
/// straight off the backend view; the diameter estimator (MS-BFS based,
/// still CSR-only) runs on `diameter_csr`.
fn stats_report<G: GraphView>(
    work: &G,
    diameter_csr: &CsrGraph,
    bfs: &graphct_kernels::BfsConfig,
    batch: usize,
    note: Option<String>,
    stdout: &mut dyn Write,
) -> Result<(), String> {
    outln!(
        stdout,
        "vertices {}  edges {}  directed {}",
        work.num_vertices(),
        work.num_edges(),
        work.is_directed()
    )?;
    if let Some(note) = note {
        outln!(stdout, "{note}")?;
    }
    let d = graphct_kernels::degree_statistics(work);
    outln!(
        stdout,
        "degrees: mean {:.4} variance {:.4} max {} min {}",
        d.mean,
        d.variance,
        d.max,
        d.min
    )?;
    let comps = graphct_kernels::components::ComponentSummary::compute(work);
    outln!(
        stdout,
        "components: {} (largest {})",
        comps.num_components(),
        comps.largest_size()
    )?;
    let dia = graphct_kernels::diameter::estimate_diameter_batched(
        diameter_csr,
        graphct_kernels::diameter::DEFAULT_SAMPLES,
        graphct_kernels::diameter::DEFAULT_MULTIPLIER,
        0,
        bfs,
        batch,
    );
    outln!(
        stdout,
        "diameter estimate {} (longest distance {} over {} sources, {:?} frontier, batch {})",
        dia.estimate,
        dia.max_distance_found,
        dia.samples,
        bfs.frontier,
        batch.clamp(1, graphct_kernels::MAX_BATCH)
    )
}

/// Backend memory observability line for `graphct stats`: the backend
/// detail plus process RSS.  `sample_rss` also publishes the
/// `rss_bytes` gauge when a trace session is live.
fn print_memory_line(detail: &str, stdout: &mut dyn Write) -> Result<(), String> {
    let rss = graphct_core::MemoryProbe::sample_rss()
        .map(|b| format!("rss {b} B; "))
        .unwrap_or_default();
    outln!(stdout, "memory: {rss}{detail}")
}

fn run(args: &[String], stdout: &mut dyn Write) -> Result<(), String> {
    let mut args = args.to_vec();
    if args.is_empty() {
        outln!(stdout, "{USAGE}\n\n{SERVE_USAGE}")?;
        return Ok(());
    }
    let cmd = args.remove(0);
    // `serve` owns its own trace session (the ingest thread starts it and
    // drains it on shutdown) and gives --trace-out a different meaning,
    // so it is dispatched before the shared telemetry flags are consumed.
    // `trace` *reads* trace files; tracing the reader would be noise.
    if cmd == "serve" {
        return serve_cmd(&mut args, stdout);
    }
    if cmd == "trace" {
        return trace_cmd(&mut args, stdout);
    }
    let _trace_session = start_trace(&mut args)?;
    let _profiler_guard = start_profiler(&mut args, _trace_session.is_some())?;
    match cmd.as_str() {
        "help" | "--help" | "-h" => {
            outln!(stdout, "{USAGE}\n\n{SERVE_USAGE}")?;
            Ok(())
        }
        "script" => {
            if args.is_empty() {
                return Err("script needs a file".into());
            }
            let file = PathBuf::from(args.remove(0));
            let base_dir = take_flag(&mut args, "--base-dir")?
                .map(PathBuf::from)
                .or_else(|| file.parent().map(Path::to_path_buf))
                .unwrap_or_else(|| PathBuf::from("."));
            finish_args(&args)?;
            let text = std::fs::read_to_string(&file)
                .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
            let mut engine = graphct_script::Engine::new();
            engine.base_dir = base_dir;
            engine.run_script(&text).map_err(|e| e.to_string())?;
            for line in &engine.output {
                outln!(stdout, "{line}")?;
            }
            Ok(())
        }
        "gen" => {
            if args.is_empty() {
                return Err("gen needs a generator (rmat|er|ba)".into());
            }
            let kind = args.remove(0);
            let seed: u64 = parse_flag(&mut args, "--seed", 0)?;
            let out: PathBuf = require_flag(&mut args, "--out")?;
            let generate: Box<dyn FnOnce() -> EdgeList> = match kind.as_str() {
                "rmat" => {
                    let scale: u32 = require_flag(&mut args, "--scale")?;
                    let edge_factor: usize = parse_flag(&mut args, "--edge-factor", 16)?;
                    let config = graphct_gen::RmatConfig::paper(scale, edge_factor);
                    Box::new(move || graphct_gen::rmat_edges(&config, seed))
                }
                "er" => {
                    let n: usize = require_flag(&mut args, "--vertices")?;
                    let m: usize = require_flag(&mut args, "--edges")?;
                    Box::new(move || graphct_gen::gnm(n, m, seed))
                }
                "ba" => {
                    let n: usize = require_flag(&mut args, "--vertices")?;
                    let m: usize = parse_flag(&mut args, "--attach", 2)?;
                    Box::new(move || graphct_gen::preferential_attachment(n, m, seed))
                }
                other => return Err(format!("unknown generator '{other}'")),
            };
            finish_args(&args)?;
            let edges = generate();
            write_edges(&out, &edges)?;
            outln!(stdout, "wrote {} edges to {}", edges.len(), out.display())?;
            Ok(())
        }
        "tweets" => {
            if args.is_empty() {
                return Err("tweets needs a profile (h1n1|atlflood|sep1)".into());
            }
            let which = args.remove(0);
            let seed: u64 = parse_flag(&mut args, "--seed", 42)?;
            let scale_pct: f64 = parse_flag(&mut args, "--scale-pct", 100.0)?;
            let out: PathBuf = require_flag(&mut args, "--out")?;
            finish_args(&args)?;
            let profile = parse_profile(&which, scale_pct)?;
            let (tweets, _pool) = graphct_twitter::generate_stream(&profile.config, seed);
            let tg = graphct_twitter::build_tweet_graph(&tweets).map_err(|e| e.to_string())?;
            let edges: EdgeList = tg.undirected.iter_arcs().filter(|&(s, t)| s < t).collect();
            write_edges(&out, &edges)?;
            outln!(
                stdout,
                "profile {}: {} tweets, {} users, {} unique interactions -> {}",
                profile.name,
                tg.num_tweets,
                tg.undirected.num_vertices(),
                tg.undirected.num_edges(),
                out.display()
            )?;
            Ok(())
        }
        "stats" => {
            if args.is_empty() {
                return Err("stats needs a graph file".into());
            }
            let path = PathBuf::from(args.remove(0));
            let bfs = parse_bfs_flags(&mut args)?;
            let reorder = parse_reorder_flag(&mut args)?;
            let batch: usize = parse_flag(&mut args, "--batch", graphct_kernels::DEFAULT_BATCH)?;
            let backend = parse_backend_flag(&mut args)?;
            finish_args(&args)?;
            if backend != Backend::Plain && reorder != graphct_core::ReorderKind::None {
                return Err("--reorder requires --backend plain".into());
            }
            let bg = load_backend(&path, backend)?;
            match &bg {
                BackendGraph::Plain(graph) => {
                    let view = graphct_core::ReorderedView::apply(graph, reorder, 0);
                    let work = view.as_ref().map_or(graph, |v| v.graph());
                    let note = view
                        .as_ref()
                        .map(|v| format!("reorder: {} pass applied", v.kind()));
                    stats_report(work, work, &bfs, batch, note, stdout)?;
                }
                BackendGraph::Mapped(m) => {
                    let (resident_before, mapped) = m.residency();
                    // The diameter estimator still wants a heap CSR; the
                    // degree/component kernels run off the mapping.
                    let csr = m.to_csr_graph();
                    stats_report(m, &csr, &bfs, batch, bg.describe(), stdout)?;
                    // Sampling after the kernels also publishes the
                    // graphct_mmap_*_bytes gauges when tracing is on.
                    let (resident_after, _) = m.sample_residency();
                    print_memory_line(
                        &format!(
                            "mmap resident {resident_before} -> {resident_after} of {mapped} B \
                             mapped (before -> after traversal)"
                        ),
                        stdout,
                    )?;
                }
                BackendGraph::Compressed(c) => {
                    let csr = c.to_csr();
                    stats_report(c, &csr, &bfs, batch, bg.describe(), stdout)?;
                    print_memory_line(
                        &format!(
                            "decode work: {} varints, {} B touched, {} blocks ({} re-decoded)",
                            graphct_core::compressed::COMPRESSED_VARINTS_DECODED.value(),
                            graphct_core::compressed::COMPRESSED_BYTES_TOUCHED.value(),
                            graphct_core::compressed::COMPRESSED_BLOCKS_DECODED.value(),
                            graphct_core::compressed::COMPRESSED_BLOCKS_REDECODED.value(),
                        ),
                        stdout,
                    )?;
                }
            }
            Ok(())
        }
        "components" => {
            if args.is_empty() {
                return Err("components needs a graph file".into());
            }
            let path = PathBuf::from(args.remove(0));
            let top: usize = parse_flag(&mut args, "--top", 10)?;
            let reorder = parse_reorder_flag(&mut args)?;
            let backend = parse_backend_flag(&mut args)?;
            finish_args(&args)?;
            if backend != Backend::Plain && reorder != graphct_core::ReorderKind::None {
                return Err("--reorder requires --backend plain".into());
            }
            let bg = load_backend(&path, backend)?;
            // Labels are mapped back to original ids so the reported
            // roots are stable across --reorder choices.
            let (colors, note) = match &bg {
                BackendGraph::Plain(graph) => {
                    let view = graphct_core::ReorderedView::apply(graph, reorder, 0);
                    let colors = match &view {
                        Some(v) => {
                            v.restore_colors(&graphct_kernels::connected_components(v.graph()))
                        }
                        None => graphct_kernels::connected_components(graph),
                    };
                    let note = view
                        .as_ref()
                        .map(|v| format!("reorder: {} pass applied", v.kind()));
                    (colors, note)
                }
                BackendGraph::Mapped(m) => {
                    (graphct_kernels::connected_components(m), bg.describe())
                }
                BackendGraph::Compressed(c) => {
                    (graphct_kernels::connected_components(c), bg.describe())
                }
            };
            let comps = graphct_kernels::components::ComponentSummary::from_colors(colors);
            outln!(
                stdout,
                "vertices {}  edges {}  components {}",
                bg.num_vertices(),
                bg.num_edges(),
                comps.num_components()
            )?;
            if let Some(note) = note {
                outln!(stdout, "{note}")?;
            }
            for rank in 0..top {
                let Some((root, size)) = comps.nth_largest(rank) else {
                    break;
                };
                outln!(
                    stdout,
                    "{:>4}  component root {:>10}  size {}",
                    rank + 1,
                    root,
                    size
                )?;
            }
            Ok(())
        }
        "bc" => {
            if args.is_empty() {
                return Err("bc needs a graph file".into());
            }
            let path = PathBuf::from(args.remove(0));
            let samples: usize = parse_flag(&mut args, "--samples", 256)?;
            let seed: u64 = parse_flag(&mut args, "--seed", 0)?;
            let top: usize = parse_flag(&mut args, "--top", 15)?;
            let bfs = parse_bfs_flags(&mut args)?;
            let reorder = parse_reorder_flag(&mut args)?;
            let batch: usize = parse_flag(&mut args, "--batch", 1)?;
            let backend = parse_backend_flag(&mut args)?;
            finish_args(&args)?;
            if backend != Backend::Plain && reorder != graphct_core::ReorderKind::None {
                return Err("--reorder requires --backend plain".into());
            }
            let bg = load_backend(&path, backend)?;
            if let Some(note) = bg.describe() {
                outln!(stdout, "{note}; materialized to a heap CSR for betweenness")?;
            }
            let graph = match bg {
                BackendGraph::Plain(g) => g,
                other => other.to_plain(),
            };
            let view = graphct_core::ReorderedView::apply(&graph, reorder, seed);
            let work = view.as_ref().map_or(&graph, |v| v.graph());
            let mut config = graphct_kernels::BetweennessConfig::sampled(samples, seed);
            config.bfs = bfs;
            config.batch = batch.max(1);
            let start = std::time::Instant::now();
            let result = graphct_kernels::betweenness_centrality(work, &config)
                .map_err(|e| e.to_string())?;
            let elapsed = start.elapsed();
            // Scores come back indexed by the working (possibly
            // relabeled) ids; report them in original ids.
            let scores = match &view {
                Some(v) => v.restore(&result.scores),
                None => result.scores.clone(),
            };
            outln!(
                stdout,
                "betweenness over {} sources in {:.3}s{}{}",
                result.sources.len(),
                elapsed.as_secs_f64(),
                if config.batch > 1 {
                    format!(" (batch {})", config.batch.min(graphct_kernels::MAX_BATCH))
                } else {
                    String::new()
                },
                view.as_ref()
                    .map_or(String::new(), |v| format!(" ({} reorder)", v.kind()))
            )?;
            for (rank, v) in graphct_metrics::top_k_indices(&scores, top)
                .into_iter()
                .enumerate()
            {
                outln!(
                    stdout,
                    "{:>4}  vertex {:>10}  score {:.2}",
                    rank + 1,
                    v,
                    scores[v]
                )?;
            }
            Ok(())
        }
        "triangles" => {
            if args.is_empty() {
                return Err("triangles needs a graph file".into());
            }
            let path = PathBuf::from(args.remove(0));
            let top: usize = parse_flag(&mut args, "--top", 10)?;
            let census = take_switch(&mut args, "--census")?;
            let reorder = parse_reorder_flag(&mut args)?;
            let backend = parse_backend_flag(&mut args)?;
            finish_args(&args)?;
            if backend != Backend::Plain && reorder != graphct_core::ReorderKind::None {
                return Err("--reorder requires --backend plain".into());
            }
            if census {
                // The census is a pure function of the arc structure, so
                // a relabeling pass can only cost time — reject it
                // instead of silently ignoring the flag.
                if reorder != graphct_core::ReorderKind::None {
                    return Err("--census counts are id-invariant; drop --reorder".into());
                }
                let graph = match backend {
                    // Text / DIMACS inputs keep their arc direction here
                    // (the triangle path symmetrizes instead).
                    Backend::Plain => load_directed_graph(&path)?,
                    _ => {
                        let bg = load_backend(&path, backend)?;
                        if let Some(note) = bg.describe() {
                            outln!(stdout, "{note}; materialized to a heap CSR for the census")?;
                        }
                        bg.to_plain()
                    }
                };
                let start = std::time::Instant::now();
                let counts = graphct_kernels::triad_census(&graph).map_err(|e| e.to_string())?;
                let elapsed = start.elapsed();
                outln!(
                    stdout,
                    "vertices {}  arcs {}  triples {}",
                    graph.num_vertices(),
                    graph.num_arcs(),
                    counts.iter().sum::<u64>()
                )?;
                outln!(stdout, "triad census in {:.3}s", elapsed.as_secs_f64())?;
                for (name, count) in graphct_kernels::TRIAD_CLASSES.iter().zip(counts) {
                    outln!(stdout, "{name:>6}  {count}")?;
                }
                return Ok(());
            }
            let bg = load_backend(&path, backend)?;
            let mut note = bg.describe();
            // Counts are restored to original ids, so the report is
            // stable across --reorder choices; only the timing moves.
            let (per_vertex, total, wedges, elapsed) = match &bg {
                BackendGraph::Plain(graph) => {
                    let view = graphct_core::ReorderedView::apply(graph, reorder, 0);
                    let work = view.as_ref().map_or(graph, |v| v.graph());
                    let start = std::time::Instant::now();
                    let stats = graphct_kernels::triangle_stats(work).map_err(|e| e.to_string())?;
                    let elapsed = start.elapsed();
                    if let Some(v) = &view {
                        note = Some(format!("reorder: {} pass applied", v.kind()));
                    }
                    let per_vertex = match &view {
                        Some(v) => v.restore(&stats.per_vertex),
                        None => stats.per_vertex,
                    };
                    (per_vertex, stats.total, stats.wedges, elapsed)
                }
                BackendGraph::Mapped(m) => {
                    let start = std::time::Instant::now();
                    let per_vertex =
                        graphct_kernels::forward_triangle_counts(m).map_err(|e| e.to_string())?;
                    (per_vertex, 0, wedge_count(m), start.elapsed())
                }
                BackendGraph::Compressed(c) => {
                    let start = std::time::Instant::now();
                    let per_vertex =
                        graphct_kernels::forward_triangle_counts(c).map_err(|e| e.to_string())?;
                    (per_vertex, 0, wedge_count(c), start.elapsed())
                }
            };
            let total = if total > 0 {
                total
            } else {
                per_vertex.iter().sum::<usize>() / 3
            };
            let transitivity = if wedges == 0 {
                0.0
            } else {
                3.0 * total as f64 / wedges as f64
            };
            outln!(
                stdout,
                "vertices {}  edges {}",
                bg.num_vertices(),
                bg.num_edges()
            )?;
            outln!(
                stdout,
                "triangles {total}  wedges {wedges}  transitivity {transitivity:.6}"
            )?;
            outln!(
                stdout,
                "counted in {:.3}s (forward merge)",
                elapsed.as_secs_f64()
            )?;
            if let Some(note) = note {
                outln!(stdout, "{note}")?;
            }
            let scores: Vec<f64> = per_vertex.iter().map(|&t| t as f64).collect();
            for (rank, v) in graphct_metrics::top_k_indices(&scores, top)
                .into_iter()
                .enumerate()
            {
                let d = match &bg {
                    BackendGraph::Plain(g) => g.degree(v as u32),
                    BackendGraph::Mapped(m) => m.degree(v as u32),
                    BackendGraph::Compressed(c) => c.degree(v as u32),
                };
                let coeff = if d < 2 {
                    0.0
                } else {
                    2.0 * per_vertex[v] as f64 / (d * (d - 1)) as f64
                };
                outln!(
                    stdout,
                    "{:>4}  vertex {:>10}  triangles {:>8}  clustering {:.4}",
                    rank + 1,
                    v,
                    per_vertex[v],
                    coeff
                )?;
            }
            Ok(())
        }
        "convert" => {
            if args.len() < 2 {
                return Err("convert needs an input graph and an output .bin path".into());
            }
            let input = PathBuf::from(args.remove(0));
            let out = PathBuf::from(args.remove(0));
            finish_args(&args)?;
            let graph = load_graph(&input)?;
            graphct_core::io::binary::save(&graph, &out).map_err(|e| e.to_string())?;
            outln!(
                stdout,
                "wrote {} vertices, {} arcs to {} (format v2)",
                graph.num_vertices(),
                graph.num_arcs(),
                out.display()
            )?;
            Ok(())
        }
        other => Err(format!("unknown command '{other}' (try 'graphct help')")),
    }
}
