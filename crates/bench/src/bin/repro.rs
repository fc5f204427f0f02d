//! `repro` — regenerate every table and figure of the paper.
//!
//! One subcommand per exhibit.  Each prints the paper's published
//! numbers next to the measured ones; for timing exhibits the absolute
//! values differ from the 128-processor Cray XMT (we run on a commodity
//! multicore), so the claim under test is the *shape*: orderings,
//! ratios, and crossovers.
//!
//! ```text
//! repro all [--quick] [--full] [--seed N] [--reps N]
//! repro table2 | table3 | table4 | fig2 | fig3 | fig4 | fig5 | fig6
//! repro ablation-sampling    # uniform vs component-stratified sources
//! repro trace-validate FILE  # check a JSON-lines trace against the schema
//! ```
//!
//! Exhibits only print; they write no files.  Performance of the
//! toolkit's layers is measured by the committed benchmark
//! (`BENCHMARK.json`, `bash benchmark/run.sh`), not here.
//!
//! `--quick` shrinks the synthetic datasets and repetition counts for a
//! smoke run; the default sizes mirror the paper (sep1 runs at 20 % of
//! its published size by default — pass `--full` for the complete
//! 735 k-user corpus).

use graphct_bench::datasets::build_dataset;
use graphct_bench::format::{f, n, Table};
use graphct_bench::timing::time_repeated;
use graphct_core::builder::build_undirected_simple;
use graphct_core::CsrGraph;
use graphct_kernels::betweenness::{
    betweenness_centrality, BetweennessConfig, SamplingSpec, SamplingStrategy,
};
use graphct_metrics::{fit_power_law, top_k_indices, top_k_overlap};
use graphct_twitter::conversations::mutual_mention_filter;
use graphct_twitter::users::{ATLFLOOD_HUBS, H1N1_HUBS};
use graphct_twitter::volume::{pearson, simulate_weekly, AttentionModel, PAPER_WEEKLY_ARTICLES};
use graphct_twitter::DatasetProfile;

#[derive(Clone, Copy)]
struct Options {
    quick: bool,
    full: bool,
    seed: u64,
    reps: usize,
}

impl Options {
    /// Scale factor for a profile under these options.
    fn scale_for(&self, name: &str) -> Option<f64> {
        if self.quick {
            match name {
                "#atlflood" => Some(0.5),
                "H1N1" => Some(0.1),
                _ => Some(0.02),
            }
        } else if name == "1 Sep 2009 all" && !self.full {
            // The 735 k-user corpus takes a while; default to 20 %.
            Some(0.2)
        } else {
            None
        }
    }

    /// Scale for the exhibits that need *exact* betweenness (Figs. 4–5):
    /// exact BC is O(n·m), so the big corpus runs at 5 % by default.
    fn exact_bc_scale_for(&self, name: &str) -> Option<f64> {
        if self.quick {
            self.scale_for(name)
        } else if name == "1 Sep 2009 all" && !self.full {
            Some(0.05)
        } else {
            None
        }
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: repro <all|table2|table3|table4|fig2|fig3|fig4|fig5|fig6|ablation-sampling|trace-validate FILE> [--quick] [--full] [--seed N] [--reps N]");
        std::process::exit(2);
    }
    let cmd = args.remove(0);
    let quick = take_switch(&mut args, "--quick");
    let full = take_switch(&mut args, "--full");
    let seed = take_value(&mut args, "--seed").unwrap_or(42);
    let default_reps = if quick { 3 } else { 10 };
    let reps = take_value(&mut args, "--reps").unwrap_or(default_reps) as usize;
    let opts = Options {
        quick,
        full,
        seed,
        reps,
    };

    if cfg!(debug_assertions) {
        eprintln!("WARNING: debug build — run with `cargo run --release -p graphct-bench --bin repro` for meaningful timings\n");
    }

    match cmd.as_str() {
        "table2" => table2(opts),
        "table3" => table3(opts),
        "table4" => table4(opts),
        "fig2" => fig2(opts),
        "fig3" => fig3(opts),
        "fig4" => fig4(opts),
        "fig5" => fig5(opts),
        "fig6" => fig6(opts),
        "ablation-sampling" => ablation_sampling(opts),
        "trace-validate" => trace_validate(&args),
        "all" => {
            table2(opts);
            table3(opts);
            table4(opts);
            fig2(opts);
            fig3(opts);
            fig4(opts);
            fig5(opts);
            fig6(opts);
            ablation_sampling(opts);
        }
        other => {
            eprintln!("unknown exhibit '{other}'");
            std::process::exit(2);
        }
    }
}

fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        args.remove(pos);
        true
    } else {
        false
    }
}

fn take_value(args: &mut Vec<String>, flag: &str) -> Option<u64> {
    let pos = args.iter().position(|a| a == flag)?;
    let v = args.get(pos + 1)?.parse().ok()?;
    args.remove(pos + 1);
    args.remove(pos);
    Some(v)
}

fn banner(title: &str) {
    println!("\n==== {title} ====");
}

// ---------------------------------------------------------------- Table II

fn table2(opts: Options) {
    banner("Table II — H1N1 articles per week (synthetic attention model)");
    let model = AttentionModel::default();
    let weeks = PAPER_WEEKLY_ARTICLES.len();
    let sims: Vec<Vec<usize>> = (0..opts.reps as u64)
        .map(|r| simulate_weekly(&model, weeks, opts.seed ^ r))
        .collect();
    let mean_sim: Vec<usize> = (0..weeks)
        .map(|w| sims.iter().map(|s| s[w]).sum::<usize>() / sims.len())
        .collect();

    let mut t = Table::new(&[
        "week (2009)",
        "paper articles",
        "simulated (mean)",
        "sample run",
    ]);
    for w in 0..weeks {
        t.row(&[
            format!("{}", 17 + w),
            n(PAPER_WEEKLY_ARTICLES[w]),
            n(mean_sim[w]),
            n(sims[0][w]),
        ]);
    }
    t.print();
    let corr = pearson(&mean_sim, &PAPER_WEEKLY_ARTICLES);
    println!("Pearson correlation (mean simulated vs paper): {corr:.3}");
}

// --------------------------------------------------------------- Table III

fn table3(opts: Options) {
    banner("Table III — tweet graph characteristics (paper vs synthetic)");
    let mut t = Table::new(&[
        "dataset",
        "metric",
        "paper full",
        "ours full",
        "paper LWCC",
        "ours LWCC",
    ]);
    for profile in DatasetProfile::all() {
        let scale = opts.scale_for(profile.name);
        let note = scale.map_or(String::new(), |s| format!(" (scaled {:.0}%)", s * 100.0));
        let name = format!("{}{}", profile.name, note);
        let stats = build_dataset(profile, scale, opts.seed);
        let p = stats.profile.paper;
        let g = &stats.tweet_graph.undirected;
        t.row(&[
            name.clone(),
            "users".into(),
            n(p.users),
            n(g.num_vertices()),
            n(p.users_lwcc),
            n(stats.users_lwcc),
        ]);
        t.row(&[
            name.clone(),
            "unique interactions".into(),
            n(p.interactions),
            n(g.num_edges()),
            n(p.interactions_lwcc),
            n(stats.interactions_lwcc),
        ]);
        t.row(&[
            name,
            "tweets w/ responses".into(),
            n(p.responses),
            n(stats.tweet_graph.tweets_with_responses),
            n(p.responses_lwcc),
            n(stats.responses_lwcc),
        ]);
    }
    t.print();
    println!("(scaled rows: compare ratios, not absolutes)");
}

// ---------------------------------------------------------------- Table IV

fn table4(opts: Options) {
    banner("Table IV — top 15 users by betweenness centrality");
    for (profile, hubs) in [
        (DatasetProfile::h1n1(), &H1N1_HUBS[..]),
        (DatasetProfile::atlflood(), &ATLFLOOD_HUBS[..]),
    ] {
        let name = profile.name;
        let stats = build_dataset(profile, opts.scale_for(name), opts.seed);
        let g = &stats.tweet_graph.undirected;
        // Exact BC on the full graph (the paper ranks within each data
        // set; hub dominance is the claim under test).
        let result = betweenness_centrality(g, &BetweennessConfig::exact()).unwrap();
        let top = top_k_indices(&result.scores, 15);
        let seeded: std::collections::HashSet<&str> = hubs.iter().copied().collect();
        println!("\n{name}: rank, handle, BC score, seeded-hub?");
        let mut hub_hits = 0;
        for (rank, v) in top.iter().enumerate() {
            let handle = stats
                .tweet_graph
                .labels
                .name(*v as u32)
                .unwrap_or("<unknown>");
            let is_hub = seeded.contains(handle) || handle.starts_with("hub");
            hub_hits += is_hub as usize;
            println!(
                "{:>3}  @{:<18} {:>14.1}  {}",
                rank + 1,
                handle,
                result.scores[*v],
                if is_hub { "HUB" } else { "" }
            );
        }
        println!(
            "{hub_hits}/15 of the top-15 are broadcast hubs (paper: top vertices \
             \"dominated by major media outlets and government organizations\")"
        );
    }
}

// ------------------------------------------------------------------ Fig. 2

fn fig2(opts: Options) {
    banner("Fig. 2 — degree distribution of the Twitter user-user graphs");
    for profile in DatasetProfile::all() {
        let name = profile.name;
        let stats = build_dataset(profile, opts.scale_for(name), opts.seed);
        let g = &stats.tweet_graph.undirected;
        let (edges, counts) = graphct_kernels::degree::degree_log_histogram(g, 2.0);
        println!("\n{name}: log-binned degree histogram (bin lower edge, count)");
        for (e, c) in edges.iter().zip(&counts) {
            if *c > 0 {
                let bar = "#".repeat(((*c as f64).log10() * 8.0).max(1.0) as usize);
                println!("{e:>8}  {c:>9}  {bar}");
            }
        }
        if let Some(fit) = fit_power_law(&g.degrees(), 2) {
            println!(
                "power-law fit: alpha {:.2}, KS distance {:.3} over {} tail samples",
                fit.alpha, fit.ks_distance, fit.tail_samples
            );
        }
        let d = graphct_kernels::degree_statistics(g);
        println!(
            "degrees: mean {:.2}, max {} ({}x mean) — heavy tail as in the paper",
            d.mean,
            d.max,
            (d.max as f64 / d.mean.max(1e-9)) as usize
        );
    }
}

// ------------------------------------------------------------------ Fig. 3

fn fig3(opts: Options) {
    banner("Fig. 3 — subcommunity (mutual-mention) filtering");
    let mut t = Table::new(&[
        "dataset",
        "original vertices",
        "largest component",
        "conversation vertices",
        "conv. in LWCC",
        "reduction factor",
    ]);
    for profile in DatasetProfile::all() {
        let name = profile.name;
        let stats = build_dataset(profile, opts.scale_for(name), opts.seed);
        let conv = mutual_mention_filter(&stats.tweet_graph.directed).expect("directed graph");
        // Fig. 3's subcommunity panels show the conversations embedded
        // in the big component; mutual one-off pairs live outside it.
        let lwcc_label = stats.components.nth_largest(0).map(|(l, _)| l);
        let conv_in_lwcc = conv
            .orig_of
            .iter()
            .filter(|&&v| Some(stats.components.colors[v as usize]) == lwcc_label)
            .count();
        t.row(&[
            name.into(),
            n(stats.tweet_graph.undirected.num_vertices()),
            n(stats.users_lwcc),
            n(conv.stats.conversation_vertices),
            n(conv_in_lwcc),
            format!("{:.0}x", conv.stats.reduction_factor),
        ]);
    }
    t.print();
    println!(
        "paper: H1N1 17k -> 1,184 conversation vertices; #atlflood 1,164 -> 37; \
         reductions up to two orders of magnitude"
    );
}

// ------------------------------------------------------------------ Fig. 4

fn fig4(opts: Options) {
    banner("Fig. 4 — approximate BC runtime vs sampling percentage");
    let levels = [10usize, 25, 50, 100];
    let mut t = Table::new(&[
        "dataset",
        "sampling %",
        "mean s",
        "ci90 s",
        "speedup vs exact",
    ]);
    for profile in DatasetProfile::all() {
        let name = profile.name;
        let stats = build_dataset(profile, opts.exact_bc_scale_for(name), opts.seed);
        let g = &stats.tweet_graph.undirected;
        let mut exact_mean = None;
        // Descending so the exact control comes first.
        for &pct in levels.iter().rev() {
            let reps = if pct == 100 {
                opts.reps.min(3)
            } else {
                opts.reps
            };
            let summary = time_repeated(reps, |r| {
                let config = BetweennessConfig::fraction(pct as f64 / 100.0, opts.seed ^ r as u64);
                std::hint::black_box(betweenness_centrality(g, &config).unwrap());
            });
            if pct == 100 {
                exact_mean = Some(summary.mean);
            }
            t.row(&[
                name.to_string(),
                pct.to_string(),
                f(summary.mean, 4),
                f(summary.ci90, 4),
                exact_mean.map_or("-".into(), |e| format!("{:.1}x", e / summary.mean)),
            ]);
        }
    }
    t.print();
    println!(
        "paper (all-Sep-2009 graph): 30 s at 10% sampling vs ~49 min exact — \
         expect near-linear growth in sampling %"
    );
}

// ------------------------------------------------------------------ Fig. 5

fn fig5(opts: Options) {
    banner("Fig. 5 — approximate-vs-exact top-k% accuracy");
    let sampling = [10usize, 25, 50];
    let top_fracs = [0.01, 0.05, 0.10, 0.20];
    let mut t = Table::new(&[
        "dataset",
        "sampling %",
        "top 1%",
        "top 5%",
        "top 10%",
        "top 20%",
    ]);
    for profile in DatasetProfile::all() {
        let name = profile.name;
        let stats = build_dataset(profile, opts.exact_bc_scale_for(name), opts.seed);
        let g = &stats.tweet_graph.undirected;
        let exact = betweenness_centrality(g, &BetweennessConfig::exact())
            .unwrap()
            .scores;
        for &pct in &sampling {
            let mut sums = [0.0f64; 4];
            for r in 0..opts.reps {
                let config = BetweennessConfig::fraction(pct as f64 / 100.0, opts.seed ^ r as u64);
                let approx = betweenness_centrality(g, &config).unwrap().scores;
                for (i, &frac) in top_fracs.iter().enumerate() {
                    sums[i] += top_k_overlap(&exact, &approx, frac);
                }
            }
            t.row(&[
                name.to_string(),
                pct.to_string(),
                f(sums[0] / opts.reps as f64, 3),
                f(sums[1] / opts.reps as f64, 3),
                f(sums[2] / opts.reps as f64, 3),
                f(sums[3] / opts.reps as f64, 3),
            ]);
        }
    }
    t.print();
    println!("paper: accuracy >= 0.80 for top 1%/5% at 10% sampling, >= 0.90 at 25-50% sampling");
}

// ------------------------------------------------------------------ Fig. 6

fn fig6(opts: Options) {
    banner("Fig. 6 — 256-source BC estimation time vs graph size |V|*|E|");
    let mut series: Vec<(String, CsrGraph)> = Vec::new();
    for profile in DatasetProfile::all() {
        let name = profile.name;
        let stats = build_dataset(profile, opts.scale_for(name), opts.seed);
        series.push((name.to_string(), stats.tweet_graph.undirected));
    }
    // R-MAT sweep standing in for the scale-29 Facebook-class instance
    // and the Kwak et al. follower graph.
    let scales: &[u32] = if opts.quick {
        &[10, 12, 14]
    } else if opts.full {
        &[12, 14, 16, 18, 20]
    } else {
        &[12, 14, 16, 18]
    };
    for &scale in scales {
        let cfg = graphct_gen::RmatConfig::paper(scale, 16);
        let g = build_undirected_simple(&graphct_gen::rmat_edges(&cfg, opts.seed)).unwrap();
        series.push((format!("R-MAT scale {scale}"), g));
    }
    // Follower-graph analog: preferential attachment, heavier average
    // degree, like the Kwak et al. crawl.
    let (ba_n, ba_m) = if opts.quick {
        (20_000, 5)
    } else {
        (200_000, 7)
    };
    let ba = build_undirected_simple(&graphct_gen::preferential_attachment(ba_n, ba_m, opts.seed))
        .unwrap();
    series.push((format!("BA follower analog n={ba_n}"), ba));

    series.sort_by_key(|(_, g)| g.num_vertices() as u128 * g.num_arcs() as u128);
    let mut t = Table::new(&["graph", "vertices", "edges", "|V|*|E|", "time s (256 src)"]);
    let mut points: Vec<(f64, f64)> = Vec::new();
    for (name, g) in &series {
        let reps = opts.reps.min(3);
        let summary = time_repeated(reps, |r| {
            let config = BetweennessConfig::sampled(256, opts.seed ^ r as u64);
            std::hint::black_box(betweenness_centrality(g, &config).unwrap());
        });
        let size = g.num_vertices() as f64 * g.num_edges() as f64;
        points.push((size, summary.mean));
        t.row(&[
            name.clone(),
            n(g.num_vertices()),
            n(g.num_edges()),
            format!("{size:.2e}"),
            f(summary.mean, 3),
        ]);
    }
    t.print();
    // Log-log slope across the R-MAT sweep: the paper's Fig. 6 shows
    // runtime growing smoothly with |V|*|E|.
    if points.len() >= 2 {
        let (x0, y0) = points[points.len() / 2];
        let (x1, y1) = *points.last().unwrap();
        if x1 > x0 && y0 > 0.0 {
            let slope = (y1 / y0).log10() / (x1 / x0).log10();
            println!("log-log growth exponent over the upper half: {slope:.2} (paper shape: smooth sub-linear growth in |V|*|E| at fixed source count)");
        }
    }
}

// ----------------------------------------------------- Ablation: sampling

fn ablation_sampling(opts: Options) {
    banner("Ablation — uniform vs component-stratified source sampling (paper §V conjecture)");
    // A graph engineered with many medium components: unguided sampling
    // can miss some entirely.
    let profile = DatasetProfile::h1n1();
    let scale = if opts.quick { Some(0.1) } else { Some(0.3) };
    let stats = build_dataset(profile, scale, opts.seed);
    let g = &stats.tweet_graph.undirected;
    let exact = betweenness_centrality(g, &BetweennessConfig::exact())
        .unwrap()
        .scores;

    let mut t = Table::new(&["strategy", "sampling %", "top 1% acc", "top 5% acc"]);
    for strategy in [
        SamplingStrategy::Uniform,
        SamplingStrategy::ComponentStratified,
    ] {
        for pct in [5usize, 10] {
            let mut acc1 = 0.0;
            let mut acc5 = 0.0;
            for r in 0..opts.reps {
                let config = BetweennessConfig {
                    sampling: SamplingSpec::fraction(pct as f64 / 100.0, opts.seed ^ r as u64)
                        .with_strategy(strategy),
                    ..Default::default()
                };
                let approx = betweenness_centrality(g, &config).unwrap().scores;
                acc1 += top_k_overlap(&exact, &approx, 0.01);
                acc5 += top_k_overlap(&exact, &approx, 0.05);
            }
            t.row(&[
                format!("{strategy:?}"),
                pct.to_string(),
                f(acc1 / opts.reps as f64, 3),
                f(acc5 / opts.reps as f64, 3),
            ]);
        }
    }
    t.print();
}

// ------------------------------------------------------------ Trace schema

/// Validate a JSON-lines trace file against the documented event schema
/// (exit 1 on the first violating record).
fn trace_validate(args: &[String]) {
    let Some(path) = args.first() else {
        eprintln!("usage: repro trace-validate FILE");
        std::process::exit(2);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    match graphct_trace::schema::validate_jsonl(&text) {
        Ok(count) => println!("{path}: {count} records, all schema-valid"),
        Err((line, msg)) => {
            eprintln!("{path}:{line}: schema violation: {msg}");
            std::process::exit(1);
        }
    }
}
