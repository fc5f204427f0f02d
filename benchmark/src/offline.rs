//! The three offline workloads: the kernel pipeline on an R-MAT graph,
//! the same graph through the mmap and compressed backends, and the
//! paper's tweet → graph → LWCC → ranking workflow.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

use graphct::core::io::{binary, edges_text};
use graphct::gen::rmat::{rmat_edges, RmatConfig};
use graphct::kernels::components::nth_largest_component;
use graphct::kernels::{clustering_summary, degree_statistics, estimate_diameter_batched, MsBfs};
use graphct::prelude::*;

use crate::common::{probe_setups, threads_during, timed, Checks, Measured, Rng, RunArgs};
use crate::layers::Layers;
use crate::oracle;
use crate::span::Tracer;
use crate::stats::median;

/// Input sizes and kernel sample counts of the offline workloads.
struct Sizing {
    rmat_scale: u32,
    /// Distinct R-MAT graphs a run prepares and cycles its reps through
    /// (warm-up on the first).  Each is one timed set-up, and a median
    /// over several graphs is steadier from seed to seed than one graph's
    /// time: same-size R-MAT graphs differ by a BFS level or a
    /// label-propagation round.
    graphs: usize,
    tweet_scale: f64,
    /// Set-ups timed per run (the tweet workload's; each R-MAT graph is
    /// one set-up).
    setups: usize,
    diameter_sources: usize,
    bfs_sources: usize,
    bc_sources: usize,
    kbc_sources: usize,
    tweet_bc_sources: usize,
}

/// R-MAT edge factor (paper parameters a,b,c,d = .55,.10,.10,.25).
const EDGE_FACTOR: usize = 16;
/// Sources of the MS-BFS batch `rmat_backends` runs per half (the
/// engine's full width).
const MSBFS_SOURCES: usize = 64;
/// How many ranked vertices the pipelines report.
const TOP_K: usize = 10;
/// Vertices of the induced sample the brute-force triangle oracle counts.
const TRIANGLE_SAMPLE: usize = 2048;
const INVALID: VertexId = VertexId::MAX;
impl Sizing {
    fn of(args: &RunArgs) -> Sizing {
        if args.quick {
            Sizing {
                rmat_scale: 12,
                graphs: 2,
                tweet_scale: 0.05,
                setups: 1,
                diameter_sources: 64,
                bfs_sources: 4,
                bc_sources: 16,
                kbc_sources: 2,
                tweet_bc_sources: 8,
            }
        } else {
            Sizing {
                rmat_scale: 16,
                graphs: 8,
                tweet_scale: 1.0,
                setups: 3,
                diameter_sources: 256,
                bfs_sources: 16,
                bc_sources: 64,
                kbc_sources: 8,
                tweet_bc_sources: 32,
            }
        }
    }
}

/// Run reps of `rep` until `seconds` have passed (at least one), after
/// one untimed warm-up rep (id 0) that also reports how many threads the
/// kernels ran on.  Returns per-rep seconds and the last rep's output.
fn run_reps<T>(
    args: &RunArgs,
    tracer: &Tracer,
    notes: &mut Vec<(String, String)>,
    mut rep: impl FnMut(u64) -> T,
) -> (Vec<f64>, T) {
    let (_, threads) = threads_during(|| rep(0));
    notes.push(("threads".into(), threads.to_string()));
    let phase = Instant::now();
    let mut times = Vec::new();
    loop {
        let id = times.len() as u64 + 1;
        let (out, secs) = timed(|| tracer.span("rep", id, || rep(id)));
        times.push(secs);
        if phase.elapsed().as_secs_f64() >= args.seconds {
            notes.push(("reps".into(), times.len().to_string()));
            return (times, out);
        }
    }
}

fn to_ms(seconds: &[f64]) -> Vec<f64> {
    seconds.iter().map(|s| s * 1e3).collect()
}

/// Fill `metric ← median self time of span` for each pair, plus their
/// sum (`bench.layer_sum_s`: what the layers, benchmark glue included,
/// account for of one rep).
fn fill_layers(tracer: &Tracer, spans: &[(&'static str, &'static str)], l: &mut Layers) {
    let mut sum = 0.0;
    for &(metric, span) in spans {
        let seconds = layer_s(tracer, span);
        sum += seconds;
        l.insert(metric, seconds);
    }
    l.insert("bench.layer_sum_s", sum);
}

/// Median per-rep self time of a span name, seconds (warm-up excluded).
fn layer_s(tracer: &Tracer, name: &'static str) -> f64 {
    let mut per_rep = tracer.self_seconds_by_id(name);
    per_rep.retain(|&(id, _)| id != 0);
    if per_rep.is_empty() {
        return 0.0;
    }
    median(&per_rep.iter().map(|&(_, s)| s).collect::<Vec<_>>())
}

fn rate(work: f64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        work / seconds
    } else {
        0.0
    }
}

/// `count` distinct-enough seeded vertices that have at least one edge.
fn connected_sources<G: GraphView>(graph: &G, count: usize, rng: &mut Rng) -> Vec<VertexId> {
    let n = graph.num_vertices();
    (0..count)
        .map(|_| loop {
            let v = rng.below(n) as VertexId;
            if graph.degree(v) > 0 {
                break v;
            }
        })
        .collect()
}

fn write_scores(path: &Path, scores: &[f64]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in scores {
        writeln!(out, "{s}")?;
    }
    out.flush()
}

fn scratch(args: &RunArgs) -> PathBuf {
    let dir = args
        .out_dir
        .join(format!("tmp-{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    dir
}

/// Set-up of both R-MAT workloads, run in a child process so that the
/// generator's edge list never counts towards the measured process's
/// peak memory: generate, renumber the vertices that have an edge to
/// `0..n` (R-MAT leaves a few percent of its ids without one; a sampled
/// source that lands there costs nothing, and how many do is a coin toss
/// per seed), and write the edge-list text (`kernels`) or the built graph
/// as format-v2 binary (`backends`).
pub fn prepare_rmat(scale: u32, seed: u64, path: &Path) {
    let raw = rmat_edges(&RmatConfig::paper(scale, EDGE_FACTOR), seed);
    let mut new_id = vec![INVALID; 1 << scale];
    for &(u, v) in raw.as_slice().iter().filter(|(u, v)| u != v) {
        new_id[u as usize] = 0;
        new_id[v as usize] = 0;
    }
    let used = new_id.iter_mut().filter(|id| **id != INVALID);
    for (next, id) in used.enumerate() {
        *id = next as VertexId;
    }
    let edges = EdgeList::from_pairs(
        raw.as_slice()
            .iter()
            .filter(|(u, v)| u != v)
            .map(|&(u, v)| (new_id[u as usize], new_id[v as usize]))
            .collect(),
    );
    if path.extension().is_some_and(|e| e == "bin") {
        let graph = build_undirected_simple(&edges).expect("build R-MAT graph");
        binary::save(&graph, path).expect("save binary graph");
    } else {
        edges_text::write_file(path, &edges).expect("write edge list");
    }
}

/// Prepare the run's graphs, one `prepare_rmat` child each (timed from
/// spawn to exit), as `rmat-<i>.<ext>` under `dir`.
fn prepare_graphs(
    args: &RunArgs,
    sizing: &Sizing,
    dir: &Path,
    ext: &str,
) -> (Vec<PathBuf>, Vec<f64>) {
    let exe = std::env::current_exe().expect("own executable path");
    let mut seeds = Rng::new(args.seed, 100);
    (0..sizing.graphs)
        .map(|i| {
            let path = dir.join(format!("rmat-{i}.{ext}"));
            let (status, secs) = timed(|| {
                std::process::Command::new(&exe)
                    .arg("prepare-rmat")
                    .arg(sizing.rmat_scale.to_string())
                    .arg(seeds.next_u64().to_string())
                    .arg(&path)
                    .status()
                    .expect("spawn set-up child")
            });
            assert!(status.success(), "set-up child failed: {status}");
            (path, secs)
        })
        .unzip()
}

/// The seed rep `id` samples its sources with.  Each rep has its own:
/// were one draw of source ids reused on every graph of a run, a lucky
/// or unlucky draw would colour the whole run's median.
fn rep_seed(args: &RunArgs, id: u64) -> u64 {
    args.seed.wrapping_mul(1_000_003).wrapping_add(id)
}

/// The graph rep `id` runs on.
fn graph_of(paths: &[PathBuf], id: u64) -> &Path {
    &paths[id as usize % paths.len()]
}

/// Single-source hybrid BFS from seeded sources that have an edge.
fn bfs_stage(graph: &CsrGraph, sources: usize, seed: u64) -> Vec<(VertexId, Vec<u32>)> {
    let sources = connected_sources(graph, sources, &mut Rng::new(seed, 1));
    let engine = HybridBfs::new(graph);
    sources.iter().map(|&s| (s, engine.levels(s))).collect()
}

/// Sampled betweenness centrality.
fn bc_stage(graph: &CsrGraph, sources: usize, seed: u64) -> graphct::kernels::BetweennessResult {
    betweenness_centrality(graph, &BetweennessConfig::sampled(sources, seed)).expect("betweenness")
}

/// `bench one-thread EDGES SEED BFS_SOURCES BC_SOURCES`: the BFS and BC
/// stages of `rmat_kernels` alone, in a child the parent started with
/// the thread-count variables set to 1.  Prints the two times.
pub fn one_thread_child(args: &[String]) -> std::process::ExitCode {
    let parsed = match args {
        [path, seed, bfs, bc] => seed
            .parse::<u64>()
            .ok()
            .zip(bfs.parse::<usize>().ok())
            .zip(bc.parse::<usize>().ok())
            .map(|((seed, bfs), bc)| (path, seed, bfs, bc)),
        _ => None,
    };
    let Some((path, seed, bfs_sources, bc_sources)) = parsed else {
        eprintln!("usage: bench one-thread EDGES SEED BFS_SOURCES BC_SOURCES");
        return std::process::ExitCode::from(2);
    };
    let edges = edges_text::read_file(path).expect("read edge list");
    let graph = build_undirected_simple(&edges).expect("build graph");
    let (_, bfs_s) = timed(|| std::hint::black_box(bfs_stage(&graph, bfs_sources, seed)));
    let (_, bc_s) = timed(|| std::hint::black_box(bc_stage(&graph, bc_sources, seed)));
    println!("{bfs_s} {bc_s}");
    std::process::ExitCode::SUCCESS
}

/// Run the one-thread child and return its (BFS, BC) seconds.
fn one_thread_times(edges_path: &Path, seed: u64, sizing: &Sizing) -> Option<(f64, f64)> {
    let out = std::process::Command::new(std::env::current_exe().ok()?)
        .arg("one-thread")
        .arg(edges_path)
        .args([seed, sizing.bfs_sources as u64, sizing.bc_sources as u64].map(|n| n.to_string()))
        .env("RAYON_NUM_THREADS", "1")
        .env("GRAPHCT_THREADS", "1")
        .output()
        .ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    let mut numbers = text.split_whitespace().map(|t| t.parse::<f64>());
    Some((numbers.next()?.ok()?, numbers.next()?.ok()?))
}

struct KernelsAnswer {
    graph: CsrGraph,
    components: Vec<VertexId>,
    bfs: Vec<(VertexId, Vec<u32>)>,
    bc: graphct::kernels::BetweennessResult,
    bc_top: Vec<usize>,
    triangles: Vec<usize>,
    cores: Vec<u32>,
    max_degree: usize,
}

pub fn rmat_kernels(args: &RunArgs, tracer: &Tracer, checks: &mut Checks) -> Measured {
    let sizing = Sizing::of(args);
    let dir = scratch(args);
    let (paths, setup_s) = prepare_graphs(args, &sizing, &dir, "txt");
    let file_mb = std::fs::metadata(&paths[0]).map_or(0.0, |m| m.len() as f64 / 1e6);
    let mut notes = Vec::new();
    let mut l = Layers::new();

    let bfs_cfg = BfsConfig::default();
    // Seconds from a rep's start to its first answer: how large, how
    // connected and how wide the graph is.
    let mut first_s = Vec::new();
    let rep = |id: u64| -> KernelsAnswer {
        let began = Instant::now();
        let seed = rep_seed(args, id);
        let edges = tracer.span("core.parse_edges", id, || {
            edges_text::read_file(graph_of(&paths, id)).expect("read edge list")
        });
        let graph = tracer.span("core.build_csr", id, || {
            build_undirected_simple(&edges).expect("build graph")
        });
        drop(edges);
        let degrees = tracer.span("kernels.degree", id, || degree_statistics(&graph));
        let components = tracer.span("kernels.components", id, || connected_components(&graph));
        let diameter = tracer.span("kernels.diameter", id, || {
            estimate_diameter_batched(
                &graph,
                sizing.diameter_sources,
                4,
                seed,
                &bfs_cfg,
                graphct::kernels::DEFAULT_BATCH,
            )
        });
        std::hint::black_box(diameter);
        if id != 0 {
            first_s.push(began.elapsed().as_secs_f64());
        }
        let bfs = tracer.span("kernels.bfs", id, || {
            bfs_stage(&graph, sizing.bfs_sources, seed)
        });
        let bc = tracer.span("kernels.bc", id, || {
            bc_stage(&graph, sizing.bc_sources, seed)
        });
        let kbc = tracer.span("kernels.kbc", id, || {
            k_betweenness_centrality(
                &graph,
                &KBetweennessConfig::sampled(1, sizing.kbc_sources, seed),
            )
            .expect("k-betweenness")
        });
        let clustering = tracer.span("kernels.triangles", id, || {
            clustering_summary(&graph).expect("clustering")
        });
        let cores = tracer.span("kernels.kcore", id, || {
            core_numbers(&graph).expect("core numbers")
        });
        let bc_top = tracer.span("metrics.rank_render", id, || {
            write_scores(&dir.join("bc.txt"), &bc.scores).expect("write bc scores");
            write_scores(&dir.join("kbc.txt"), &kbc.scores).expect("write kbc scores");
            write_scores(&dir.join("clustering.txt"), &clustering.coefficients)
                .expect("write clustering");
            std::hint::black_box(top_k_indices(&kbc.scores, TOP_K));
            top_k_indices(&bc.scores, TOP_K)
        });
        KernelsAnswer {
            graph,
            components,
            bfs,
            bc,
            bc_top,
            triangles: clustering.triangles,
            cores,
            max_degree: degrees.max,
        }
    };
    let (times, answer) = run_reps(args, tracer, &mut notes, rep);

    let graph = &answer.graph;
    let arcs = graph.num_arcs() as f64;
    notes.extend([
        ("vertices".into(), graph.num_vertices().to_string()),
        ("arcs".into(), graph.num_arcs().to_string()),
        ("edge_list_mb".into(), format!("{file_mb:.1}")),
    ]);

    // Oracles, on the last rep's answers.
    checks.check(
        || "components differ from union-find".into(),
        answer.components == oracle::components(graph),
    );
    for (source, levels) in &answer.bfs {
        checks.check(
            || format!("BFS levels from {source} differ from queue BFS"),
            *levels == oracle::bfs_levels(graph, *source),
        );
    }
    let reference = oracle::betweenness(graph, &answer.bc.sources);
    let ranked: Vec<(VertexId, f64)> = answer
        .bc_top
        .iter()
        .map(|&v| (v as VertexId, answer.bc.scores[v]))
        .collect();
    checks.check(
        || "betweenness top-k differs from Brandes".into(),
        oracle::top_k_agrees(&ranked, &reference, TOP_K),
    );
    check_triangles(graph, &answer.triangles, checks);
    checks.check(
        || "a core number exceeds its degree, or the maximum degree is wrong".into(),
        answer.cores.len() == graph.num_vertices()
            && answer
                .cores
                .iter()
                .enumerate()
                .all(|(v, &c)| c as usize <= graph.degree(v as VertexId))
            && answer.max_degree
                == (0..graph.num_vertices())
                    .map(|v| graph.degree(v as VertexId))
                    .max()
                    .unwrap_or(0),
    );

    if tracer.enabled() {
        let l = &mut l;
        let spans = [
            ("core.parse_edges_s", "core.parse_edges"),
            ("core.build_csr_s", "core.build_csr"),
            ("kernels.degree_s", "kernels.degree"),
            ("kernels.components_s", "kernels.components"),
            ("kernels.diameter_s", "kernels.diameter"),
            ("kernels.bfs_s", "kernels.bfs"),
            ("kernels.bc_s", "kernels.bc"),
            ("kernels.kbc_s", "kernels.kbc"),
            ("kernels.triangles_s", "kernels.triangles"),
            ("kernels.kcore_s", "kernels.kcore"),
            ("metrics.rank_render_s", "metrics.rank_render"),
            ("bench.glue_s", "rep"),
        ];
        fill_layers(tracer, &spans, l);
        l.insert(
            "core.parse_mb_per_s",
            rate(file_mb, l["core.parse_edges_s"]),
        );
        l.insert(
            "core.build_edges_per_s",
            rate(arcs / 2.0, l["core.build_csr_s"]),
        );
        l.insert(
            "kernels.bfs_edges_per_s",
            rate(sizing.bfs_sources as f64 * arcs, l["kernels.bfs_s"]),
        );
        l.insert(
            "kernels.bc_edges_per_s",
            rate(sizing.bc_sources as f64 * arcs, l["kernels.bc_s"]),
        );
        l.insert(
            "kernels.triangles_edges_per_s",
            rate(arcs, l["kernels.triangles_s"]),
        );
        // Scaling column: rep 1's BFS and BC against the same stages on
        // the same graph in a child held to one thread.
        if let Some((bfs_1t, bc_1t)) =
            one_thread_times(graph_of(&paths, 1), rep_seed(args, 1), &sizing)
        {
            let of_rep_1 = |name| {
                tracer
                    .self_seconds_by_id(name)
                    .iter()
                    .find(|&&(id, _)| id == 1)
                    .map_or(0.0, |&(_, s)| s)
            };
            l.insert(
                "kernels.bfs_speedup_vs_1t",
                rate(bfs_1t, of_rep_1("kernels.bfs")),
            );
            l.insert(
                "kernels.bc_speedup_vs_1t",
                rate(bc_1t, of_rep_1("kernels.bc")),
            );
        }
        crate::layers::mt_primitives(args.seed, l);
    }
    std::fs::remove_dir_all(&dir).ok();
    Measured {
        setup_s,
        light_ms: to_ms(&first_s),
        heavy_ms: to_ms(&times),
        throughput_per_s: rate(arcs, median(&times)),
        layers: l,
        notes,
    }
}

/// Compare the kernel's per-vertex triangle counts with brute force on
/// the subgraph induced by the first `TRIANGLE_SAMPLE` vertex ids (in
/// R-MAT those are the dense corner).  A triangle of the sample is a
/// triangle of the graph, so each sampled count bounds the kernel's from
/// below; the kernel is then re-run on the sample itself for equality.
fn check_triangles(graph: &CsrGraph, triangles: &[usize], checks: &mut Checks) {
    let n = graph.num_vertices();
    let keep: Vec<bool> = (0..n).map(|v| v < TRIANGLE_SAMPLE).collect();
    let sample = graphct::core::subgraph::induced_subgraph(graph, &keep).expect("induced sample");
    let brute = oracle::triangles_brute(&sample.graph);
    let on_sample = clustering_summary(&sample.graph).expect("clustering of the sample");
    checks.check(
        || "triangle counts on the induced sample differ from brute force".into(),
        on_sample.triangles == brute,
    );
    checks.check(
        || "a vertex has fewer triangles in the graph than in its sample".into(),
        brute
            .iter()
            .enumerate()
            .all(|(v, &t)| triangles[sample.orig_of[v] as usize] >= t),
    );
}

/// What one half of a `rmat_backends` rep answers.
#[derive(PartialEq, Debug)]
struct BackendAnswer {
    max_degree: usize,
    components: Vec<VertexId>,
    levels: Vec<Vec<u32>>,
}

fn backend_half<G: GraphView>(
    graph: &G,
    sources: &[VertexId],
    tracer: &Tracer,
    id: u64,
    (degree, components, msbfs): (&'static str, &'static str, &'static str),
) -> BackendAnswer {
    let stats = tracer.span(degree, id, || degree_statistics(graph));
    let colors = tracer.span(components, id, || connected_components(graph));
    let levels = tracer.span(msbfs, id, || {
        let engine = HybridBfs::new(graph);
        MsBfs::new(&engine).run_batch(sources).levels
    });
    BackendAnswer {
        max_degree: stats.max,
        components: colors,
        levels,
    }
}

pub fn rmat_backends(args: &RunArgs, tracer: &Tracer, checks: &mut Checks) -> Measured {
    let sizing = Sizing::of(args);
    let dir = scratch(args);
    let (paths, setup_s) = prepare_graphs(args, &sizing, &dir, "bin");
    let mut notes = Vec::new();
    let mut l = Layers::new();

    let mut halves: (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
    let mut bytes_per_arc = 0.0;
    let mut sources_used = Vec::new();
    let rep = |id: u64| -> (BackendAnswer, BackendAnswer) {
        let (mmap_answer, mmap_s) = timed(|| {
            tracer.span("backends.mmap_half", id, || {
                let graph = tracer.span("core.mmap_open", id, || {
                    MmapCsr::open(graph_of(&paths, id)).expect("mmap graph")
                });
                let sources =
                    connected_sources(&graph, MSBFS_SOURCES, &mut Rng::new(rep_seed(args, id), 2));
                let names = (
                    "kernels.degree_mmap",
                    "kernels.components_mmap",
                    "kernels.msbfs_mmap",
                );
                let answer = backend_half(&graph, &sources, tracer, id, names);
                sources_used = sources;
                answer
            })
        });
        let (compressed_answer, compressed_s) = timed(|| {
            tracer.span("backends.compressed_half", id, || {
                let plain = tracer.span("core.binary_load", id, || {
                    binary::load(graph_of(&paths, id)).expect("load graph")
                });
                let graph = tracer.span("core.compress", id, || CompressedCsr::from_view(&plain));
                drop(plain);
                bytes_per_arc = graph.bytes_per_arc();
                let names = (
                    "kernels.degree_compressed",
                    "kernels.components_compressed",
                    "kernels.msbfs_compressed",
                );
                backend_half(&graph, &sources_used, tracer, id, names)
            })
        });
        if id != 0 {
            halves.0.push(mmap_s);
            halves.1.push(compressed_s);
        }
        (mmap_answer, compressed_answer)
    };
    let (times, (mmap_answer, compressed_answer)) = run_reps(args, tracer, &mut notes, rep);

    // The last rep's graph, for the oracles.
    let graph = binary::load(graph_of(&paths, times.len() as u64)).expect("load graph");
    let arcs = graph.num_arcs() as f64;
    notes.extend([
        ("vertices".into(), graph.num_vertices().to_string()),
        ("arcs".into(), graph.num_arcs().to_string()),
    ]);

    checks.check(
        || "mmap and compressed backends answer differently".into(),
        mmap_answer == compressed_answer,
    );
    checks.check(
        || "backend components differ from union-find".into(),
        mmap_answer.components == oracle::components(&graph),
    );
    // Every lane of the batch against a queue BFS would cost more than a
    // rep; a seeded handful is checked, the rest by backend agreement.
    let mut rng = Rng::new(args.seed, 3);
    for _ in 0..4 {
        let lane = rng.below(sources_used.len());
        checks.check(
            || format!("MS-BFS lane {lane} differs from queue BFS"),
            mmap_answer.levels[lane] == oracle::bfs_levels(&graph, sources_used[lane]),
        );
    }

    if tracer.enabled() {
        let l = &mut l;
        let spans = [
            ("core.mmap_open_s", "core.mmap_open"),
            ("core.binary_load_s", "core.binary_load"),
            ("core.compress_s", "core.compress"),
            ("kernels.components_mmap_s", "kernels.components_mmap"),
            (
                "kernels.components_compressed_s",
                "kernels.components_compressed",
            ),
            ("kernels.msbfs_mmap_s", "kernels.msbfs_mmap"),
            ("kernels.msbfs_compressed_s", "kernels.msbfs_compressed"),
            ("kernels.degree_mmap_s", "kernels.degree_mmap"),
            ("kernels.degree_compressed_s", "kernels.degree_compressed"),
            ("bench.glue_s", "rep"),
        ];
        fill_layers(tracer, &spans, l);
        l.insert("core.compressed_bytes_per_arc", bytes_per_arc);
    }
    std::fs::remove_dir_all(&dir).ok();
    Measured {
        setup_s,
        light_ms: to_ms(&halves.0),
        heavy_ms: to_ms(&halves.1),
        throughput_per_s: rate(2.0 * arcs, median(&times)),
        layers: l,
        notes,
    }
}

/// Set-up of `tweets_pipeline`: generate the corpus.  Timed.
pub fn tweets_setup(args: &RunArgs) -> (Vec<Tweet>, f64) {
    let profile = DatasetProfile::sep1().scaled(Sizing::of(args).tweet_scale);
    let ((tweets, _pool), secs) = timed(|| generate_stream(&profile.config, args.seed));
    (tweets, secs)
}

struct TweetsAnswer {
    tweet_graph: graphct::twitter::TweetGraph,
    components: Vec<VertexId>,
    lwcc: graphct::core::subgraph::Subgraph,
    bc: graphct::kernels::BetweennessResult,
    top: Vec<(VertexId, String, f64)>,
}

pub fn tweets_pipeline(args: &RunArgs, tracer: &Tracer, checks: &mut Checks) -> Measured {
    let sizing = Sizing::of(args);
    let mut setup_s = probe_setups(args, sizing.setups - 1);
    let (tweets, secs) = tweets_setup(args);
    setup_s.push(secs);
    let mut notes = Vec::new();
    let mut l = Layers::new();

    // Seconds from a rep's start to its first answer: the interaction
    // graph and its largest component (the paper's Table III columns
    // before the ranking).
    let mut first_s = Vec::new();
    let rep = |id: u64| -> TweetsAnswer {
        let began = Instant::now();
        let seed = rep_seed(args, id);
        let tweet_graph = tracer.span("twitter.build_tweet_graph", id, || {
            build_tweet_graph(&tweets).expect("build tweet graph")
        });
        let conversations = tracer.span("twitter.mutual_filter", id, || {
            mutual_mention_filter(&tweet_graph.directed).expect("mutual-mention filter")
        });
        std::hint::black_box(conversations.stats);
        let components = tracer.span("kernels.components", id, || {
            connected_components(&tweet_graph.undirected)
        });
        let lwcc = tracer.span("kernels.lwcc_extract", id, || {
            nth_largest_component(&tweet_graph.undirected, 0).expect("a largest component")
        });
        if id != 0 {
            first_s.push(began.elapsed().as_secs_f64());
        }
        let bc = tracer.span("kernels.bc", id, || {
            betweenness_centrality(
                &lwcc.graph,
                &BetweennessConfig::sampled(sizing.tweet_bc_sources, seed),
            )
            .expect("betweenness")
        });
        let top = tracer.span("metrics.rank_render", id, || {
            top_k_indices(&bc.scores, TOP_K)
                .into_iter()
                .map(|v| {
                    let user = lwcc.to_parent(v as VertexId);
                    let name = tweet_graph.labels.name(user).unwrap_or("?").to_owned();
                    (v as VertexId, name, bc.scores[v])
                })
                .collect()
        });
        TweetsAnswer {
            tweet_graph,
            components,
            lwcc,
            bc,
            top,
        }
    };
    let (times, answer) = run_reps(args, tracer, &mut notes, rep);

    let graph = &answer.tweet_graph.undirected;
    notes.extend([
        ("tweets".into(), tweets.len().to_string()),
        ("users".into(), graph.num_vertices().to_string()),
        ("interactions".into(), graph.num_edges().to_string()),
        (
            "lwcc_users".into(),
            answer.lwcc.graph.num_vertices().to_string(),
        ),
        (
            "top_user".into(),
            answer.top.first().map_or("?".into(), |t| t.1.clone()),
        ),
    ]);

    let reference_components = oracle::components(graph);
    checks.check(
        || "components differ from union-find".into(),
        answer.components == reference_components,
    );
    // The LWCC must be exactly the most populous union-find class.
    let mut sizes = vec![0usize; graph.num_vertices()];
    reference_components
        .iter()
        .for_each(|&c| sizes[c as usize] += 1);
    let largest = sizes.iter().copied().max().unwrap_or(0);
    checks.check(
        || "LWCC is not the largest union-find component".into(),
        answer.lwcc.graph.num_vertices() == largest
            && answer
                .lwcc
                .orig_of
                .iter()
                .all(|&v| sizes[reference_components[v as usize] as usize] == largest),
    );
    let reference = oracle::betweenness(&answer.lwcc.graph, &answer.bc.sources);
    let ranked: Vec<(VertexId, f64)> = answer.top.iter().map(|t| (t.0, t.2)).collect();
    checks.check(
        || "betweenness top-k differs from Brandes".into(),
        oracle::top_k_agrees(&ranked, &reference, TOP_K),
    );
    checks.check(
        || "a ranked user has no screen name".into(),
        answer.top.iter().all(|t| t.1 != "?"),
    );
    checks.check(
        || "tweet graph lost tweets or users".into(),
        answer.tweet_graph.num_tweets == tweets.len()
            && answer.tweet_graph.labels.len() == graph.num_vertices(),
    );

    if tracer.enabled() {
        let l = &mut l;
        let spans = [
            ("twitter.build_tweet_graph_s", "twitter.build_tweet_graph"),
            ("twitter.mutual_filter_s", "twitter.mutual_filter"),
            ("kernels.components_s", "kernels.components"),
            ("kernels.lwcc_extract_s", "kernels.lwcc_extract"),
            ("kernels.bc_s", "kernels.bc"),
            ("metrics.rank_render_s", "metrics.rank_render"),
            ("bench.glue_s", "rep"),
        ];
        fill_layers(tracer, &spans, l);
        l.insert(
            "twitter.tweets_per_s",
            rate(tweets.len() as f64, l["twitter.build_tweet_graph_s"]),
        );
        l.insert(
            "kernels.bc_edges_per_s",
            rate(
                sizing.tweet_bc_sources as f64 * answer.lwcc.graph.num_arcs() as f64,
                l["kernels.bc_s"],
            ),
        );
    }
    Measured {
        setup_s,
        light_ms: to_ms(&first_s),
        heavy_ms: to_ms(&times),
        throughput_per_s: rate(tweets.len() as f64, median(&times)),
        layers: l,
        notes,
    }
}
