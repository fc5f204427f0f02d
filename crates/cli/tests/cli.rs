//! End-to-end tests of the `graphct` binary: generate → stats → bc →
//! script, through the real argv surface.

use std::path::{Path, PathBuf};
use std::process::Command;

fn graphct() -> Command {
    Command::new(env!("CARGO_BIN_EXE_graphct"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("graphct_cli_{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn help_prints_usage() {
    let out = graphct().arg("help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("graphct script"));
}

#[test]
fn no_args_prints_usage_and_succeeds() {
    let out = graphct().output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn unknown_command_fails_with_message() {
    let out = graphct().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn gen_stats_bc_pipeline() {
    let dir = temp_dir("pipeline");
    let edges = dir.join("rmat.txt");

    let out = graphct()
        .args([
            "gen",
            "rmat",
            "--scale",
            "8",
            "--edge-factor",
            "4",
            "--seed",
            "1",
            "--out",
        ])
        .arg(&edges)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(edges.exists());

    let out = graphct().arg("stats").arg(&edges).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("vertices"));
    assert!(text.contains("components:"));
    assert!(text.contains("diameter estimate"));

    let out = graphct()
        .arg("bc")
        .arg(&edges)
        .args(["--samples", "16", "--top", "3"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("betweenness over 16 sources"));
    assert_eq!(text.lines().filter(|l| l.contains("vertex")).count(), 3);
}

#[test]
fn batch_flag_changes_engine_not_results() {
    let dir = temp_dir("batch");
    let edges = dir.join("rmat.txt");
    let out = graphct()
        .args([
            "gen",
            "rmat",
            "--scale",
            "7",
            "--edge-factor",
            "4",
            "--seed",
            "2",
            "--out",
        ])
        .arg(&edges)
        .output()
        .unwrap();
    assert!(out.status.success());

    // stats: --batch 1 (per-source rayon) and --batch 64 (MS-BFS) must
    // print the same diameter line apart from the batch annotation.
    let diameter_line = |batch: &str| {
        let out = graphct()
            .arg("stats")
            .arg(&edges)
            .args(["--batch", batch])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout).to_string();
        let line = text
            .lines()
            .find(|l| l.starts_with("diameter estimate"))
            .unwrap_or_else(|| panic!("no diameter line in {text}"))
            .to_string();
        assert!(line.contains(&format!("batch {batch}")), "{line}");
        line.split(", batch").next().unwrap().to_string()
    };
    assert_eq!(diameter_line("1"), diameter_line("64"));

    // bc: batched forward pass reports the engine and matches scores.
    let bc_out = |extra: &[&str]| {
        let out = graphct()
            .arg("bc")
            .arg(&edges)
            .args(["--samples", "16", "--top", "3", "--seed", "5"])
            .args(extra)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    let classic = bc_out(&[]);
    let batched = bc_out(&["--batch", "64"]);
    assert!(batched.contains("(batch 64)"), "{batched}");
    let scores = |text: &str| {
        text.lines()
            .filter(|l| l.contains("vertex"))
            .map(str::to_string)
            .collect::<Vec<_>>()
    };
    assert_eq!(scores(&classic), scores(&batched));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tweets_profile_generates_edge_list() {
    let dir = temp_dir("tweets");
    let out_file = dir.join("atl.txt");
    let out = graphct()
        .args(["tweets", "atlflood", "--scale-pct", "20", "--out"])
        .arg(&out_file)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("profile #atlflood"));
    assert!(out_file.exists());
}

/// `--out` follows the readers' extension rule: a `.bin` written by
/// `gen` or `tweets` is the CSR that the text + `convert` route builds,
/// and a `.gr` reads back as the same graph.
#[test]
fn out_files_follow_the_readers_extension_rule() {
    let dir = temp_dir("bin_out");
    let run = |argv: &[&str], extra: &[&Path]| -> String {
        let out = graphct().args(argv).args(extra).output().unwrap();
        assert!(
            out.status.success(),
            "{argv:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    let generators: [&[&str]; 2] = [
        &["gen", "rmat", "--scale", "8", "--seed", "5", "--out"],
        &["tweets", "atlflood", "--scale-pct", "5", "--out"],
    ];
    for (i, argv) in generators.into_iter().enumerate() {
        let txt = dir.join(format!("g{i}.txt"));
        let bin = dir.join(format!("g{i}.bin"));
        let converted = dir.join(format!("g{i}_converted.bin"));
        let dimacs = dir.join(format!("g{i}.gr"));
        for out in [&txt, &bin, &dimacs] {
            run(argv, &[out]);
        }
        run(&["convert"], &[&txt, &converted]);
        assert_eq!(
            std::fs::read(&bin).unwrap(),
            std::fs::read(&converted).unwrap()
        );
        let stats = run(&["stats"], &[&bin]);
        assert!(stats.contains("components:"), "{stats}");
        assert_eq!(stats, run(&["stats"], &[&txt]));
        assert_eq!(stats, run(&["stats"], &[&dimacs]));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A reader that stops early (`graphct bc G | head -1`) ends the
/// command quietly instead of panicking on the closed pipe.
#[test]
fn closed_stdout_ends_the_command_quietly() {
    use std::io::BufRead;
    let dir = temp_dir("closed_stdout");
    let edges = dir.join("g.txt");
    let out = graphct()
        .args([
            "gen",
            "rmat",
            "--scale",
            "13",
            "--edge-factor",
            "4",
            "--out",
        ])
        .arg(&edges)
        .output()
        .unwrap();
    assert!(out.status.success());
    // Thousands of score lines overflow the pipe buffer, so the writer
    // is still printing when the pipe closes.
    let mut child = graphct()
        .arg("bc")
        .arg(&edges)
        .args(["--samples", "4", "--top", "10000"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut reader = std::io::BufReader::new(child.stdout.take().unwrap());
    let mut first = String::new();
    reader.read_line(&mut first).unwrap();
    assert!(first.starts_with("betweenness over"), "{first}");
    drop(reader);
    let out = child.wait_with_output().unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("panicked"), "{err}");
    assert!(out.status.success(), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn script_subcommand_runs_paper_script() {
    let dir = temp_dir("script");
    // A small DIMACS file plus a script referencing it relatively.
    let edges = graphct_core::EdgeList::from_pairs(vec![(0, 1), (1, 2), (3, 4)]);
    graphct_core::io::dimacs::write_file(dir.join("g.gr"), 5, &edges).unwrap();
    std::fs::write(
        dir.join("analysis.gct"),
        "read dimacs g.gr\nprint components\nextract component 1\nprint degrees\n",
    )
    .unwrap();

    let out = graphct()
        .arg("script")
        .arg(dir.join("analysis.gct"))
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("components: 2 total"));
    assert!(text.contains("extracted component 1: 3 vertices"));
}

#[test]
fn triangles_counts_and_census() {
    let dir = temp_dir("triangles");
    let edges = dir.join("diamond.txt");
    // Diamond 0-1-2-3 with chord 1-2, plus a 3-4-5 tail: two triangles.
    std::fs::write(&edges, "0 1\n0 2\n1 2\n1 3\n2 3\n3 4\n4 5\n").unwrap();

    let out = graphct()
        .arg("triangles")
        .arg(&edges)
        .args(["--top", "2"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("triangles 2  wedges 11  transitivity 0.545455"));
    assert_eq!(text.lines().filter(|l| l.contains("vertex")).count(), 2);

    // Relabeling must not change the report (counts restore to the
    // original ids), only the timing/annotation lines.
    let reordered = graphct()
        .arg("triangles")
        .arg(&edges)
        .args(["--top", "2", "--reorder", "degree"])
        .output()
        .unwrap();
    assert!(reordered.status.success());
    let reordered = String::from_utf8_lossy(&reordered.stdout);
    assert!(reordered.contains("reorder: degree pass applied"));
    let ranked = |s: &str| -> Vec<String> {
        s.lines()
            .filter(|l| l.contains("vertex"))
            .map(|l| l.to_string())
            .collect()
    };
    assert_eq!(ranked(&text), ranked(&reordered));

    // The census reads the same file as directed arcs: one 030T per
    // chordal triangle, and C(6,3) = 20 triples partitioned in total.
    let census = graphct()
        .arg("triangles")
        .arg(&edges)
        .arg("--census")
        .output()
        .unwrap();
    assert!(
        census.status.success(),
        "{}",
        String::from_utf8_lossy(&census.stderr)
    );
    let census = String::from_utf8_lossy(&census.stdout);
    assert!(census.contains("triples 20"));
    assert!(census.contains("030T  2"));

    let bad = graphct()
        .arg("triangles")
        .arg(&edges)
        .args(["--census", "--reorder", "degree"])
        .output()
        .unwrap();
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("id-invariant"));
}

/// Write a tiny edge-list graph and return its path.
fn small_graph(dir: &Path) -> PathBuf {
    let path = dir.join("small.txt");
    std::fs::write(&path, "0 1\n1 2\n2 3\n3 0\n4 5\n").unwrap();
    path
}

#[test]
fn summary_metrics_format_writes_to_file() {
    let dir = temp_dir("summary_file");
    let graph = small_graph(&dir);
    let summary = dir.join("summary.txt");

    let out = graphct()
        .arg("components")
        .arg(&graph)
        .args(["--metrics-format", "summary", "--trace-out"])
        .arg(&summary)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&summary).unwrap();
    assert!(
        text.contains("components"),
        "summary file has the components span:\n{text}"
    );
    // Without --trace-out the summary still lands on stderr.
    let out = graphct()
        .arg("components")
        .arg(&graph)
        .args(["--metrics-format", "summary"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("components"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_flame_round_trips_folded_stacks() {
    let dir = temp_dir("flame");
    let graph = small_graph(&dir);
    let trace = dir.join("trace.jsonl");
    let folded = dir.join("folded.txt");

    let out = graphct()
        .arg("stats")
        .arg(&graph)
        .arg("--trace-out")
        .arg(&trace)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The trace honours the documented schema and carries the traversal's
    // per-level records (classic BFS levels or batched MS-BFS waves).
    let jsonl = std::fs::read_to_string(&trace).unwrap();
    graphct_trace::schema::validate_jsonl(&jsonl)
        .unwrap_or_else(|(line, e)| panic!("line {line}: {e}\n{jsonl}"));
    assert!(
        jsonl.contains("\"bfs_level\"") || jsonl.contains("\"msbfs_wave\""),
        "trace has no per-level traversal record:\n{jsonl}"
    );

    let out = graphct()
        .args(["trace", "flame"])
        .arg(&trace)
        .arg("--out")
        .arg(&folded)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&folded).unwrap();
    // Round-trip: parse the folded file and re-render it byte-identically.
    let stacks = graphct_trace::analyze::parse_folded(&text).unwrap();
    assert!(!stacks.is_empty());
    assert_eq!(graphct_trace::analyze::render_folded(&stacks), text);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_promcheck_validates_prom_export() {
    let dir = temp_dir("promcheck");
    let graph = small_graph(&dir);
    let metrics = dir.join("metrics.txt");
    let out = graphct()
        .arg("components")
        .arg(&graph)
        .args(["--metrics-format", "prom", "--trace-out"])
        .arg(&metrics)
        .output()
        .unwrap();
    assert!(out.status.success());

    let out = graphct()
        .args(["trace", "promcheck"])
        .arg(&metrics)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("samples"));

    // A malformed exposition fails with the offending line number.
    let bad = dir.join("bad.txt");
    std::fs::write(&bad, "graphct_ok 1\n0bad_name 2\n").unwrap();
    let out = graphct()
        .args(["trace", "promcheck"])
        .arg(&bad)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains(":2:"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_finite_batches_runs_to_drain() {
    let out = graphct()
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--profile",
            "atlflood",
            "--scale-pct",
            "5",
            "--seed",
            "3",
            "--batch-size",
            "16",
            "--batches",
            "20",
            "--interval-ms",
            "0",
            "--window",
            "8",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("serving http://127.0.0.1:"), "{text}");
    assert!(text.contains("drained: 20 batches"), "{text}");
}

#[test]
fn gen_requires_out_flag() {
    let out = graphct()
        .args(["gen", "rmat", "--scale", "4"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--out"));
}

#[test]
fn profile_flag_prints_flamegraph_and_writes_folded_dump() {
    let dir = temp_dir("profile_flag");
    let edges = dir.join("g.txt");
    let folded = dir.join("prof.folded");

    let out = graphct()
        .args(["gen", "rmat", "--scale", "10", "--seed", "3", "--out"])
        .arg(&edges)
        .output()
        .unwrap();
    assert!(out.status.success());

    // A high sampling rate keeps the run short while still guaranteeing
    // samples land during the kernels.
    let out = graphct()
        .arg("stats")
        .arg(&edges)
        .args(["--profile", "--profile-hz", "997", "--profile-out"])
        .arg(&folded)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("continuous profile:") && err.contains("Hz"),
        "stderr must carry the profile header:\n{err}"
    );
    // The ASCII flame roots at the main thread with a percentage bar.
    assert!(
        err.contains("main") && err.contains("100.0%"),
        "stderr must carry the flamegraph:\n{err}"
    );
    // The folded dump parses and is state-tagged.
    let text = std::fs::read_to_string(&folded).unwrap();
    let total: u64 = text
        .lines()
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .sum();
    assert!(total > 0, "dump must contain samples:\n{text}");
    assert!(
        text.lines().all(|l| l.contains(";[cpu] ")
            || l.contains(";[idle] ")
            || l.ends_with("[cpu]")
            || l.ends_with("[idle]")),
        "every stack carries an on/off-CPU leaf:\n{text}"
    );
}

#[test]
fn trace_histo_lists_all_histograms_without_name() {
    let dir = temp_dir("histo_list");
    let edges = dir.join("g.txt");
    let trace = dir.join("t.jsonl");

    let out = graphct()
        .args(["gen", "rmat", "--scale", "8", "--seed", "5", "--out"])
        .arg(&edges)
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = graphct()
        .arg("stats")
        .arg(&edges)
        .arg("--trace-out")
        .arg(&trace)
        .output()
        .unwrap();
    assert!(out.status.success());

    // Bare `trace histo` inventories every histogram in the trace.
    let out = graphct()
        .args(["trace", "histo"])
        .arg(&trace)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("histogram") && text.contains("p50") && text.contains("p99"));
    let listed: Vec<&str> = text
        .lines()
        .skip(1)
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert!(!listed.is_empty(), "no histograms listed:\n{text}");

    // --name drills into the detailed chart for one of them.
    let out = graphct()
        .args(["trace", "histo"])
        .arg(&trace)
        .args(["--name", listed[0]])
        .output()
        .unwrap();
    assert!(out.status.success());
    let detail = String::from_utf8_lossy(&out.stdout);
    assert!(detail.contains("observations over"), "{detail}");
    assert!(detail.contains("p999"), "{detail}");
}

/// Run `graphct` with `argv` and require a failure with an `error:`
/// line whose text contains `expected`.
fn assert_rejected(argv: &[String], expected: &str) {
    let out = graphct().args(argv).output().unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{argv:?} succeeded");
    assert!(
        err.lines()
            .any(|l| l.starts_with("error:") && l.contains(expected)),
        "{argv:?}: expected an error line containing {expected:?}, got:\n{err}"
    );
}

#[test]
fn every_subcommand_rejects_misspelled_unknown_duplicated_and_valueless_flags() {
    let dir = temp_dir("flag_matrix");
    let graph = small_graph(&dir).to_string_lossy().into_owned();
    let out = dir.join("out.txt").to_string_lossy().into_owned();
    // Per subcommand: a valid invocation, a misspelled flag with its
    // value, and a flag that takes a value.  Serve's base is bounded so a
    // regression that accepts the bad flag still exits.
    let surfaces: [(&[&str], [&str; 2], [&str; 2]); 7] = [
        (&["stats", &graph], ["--reoder", "degree"], ["--batch", "8"]),
        (&["components", &graph], ["--tpo", "3"], ["--top", "3"]),
        (&["bc", &graph], ["--sampels", "4"], ["--seed", "3"]),
        (&["triangles", &graph], ["--tpo", "2"], ["--top", "2"]),
        (
            &["gen", "rmat", "--scale", "4", "--out", &out],
            ["--edge-facter", "4"],
            ["--seed", "1"],
        ),
        (
            &["tweets", "atlflood", "--scale-pct", "1", "--out", &out],
            ["--sede", "3"],
            ["--seed", "3"],
        ),
        (
            &[
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--batches",
                "1",
                "--interval-ms",
                "0",
            ],
            ["--batch-szie", "8"],
            ["--seed", "3"],
        ),
    ];
    for (base, misspelled, valued) in surfaces {
        let with = |extra: &[&str]| -> Vec<String> {
            base.iter().chain(extra).map(|a| a.to_string()).collect()
        };
        let misspelled_msg = format!("unexpected argument '{}'", misspelled[0]);
        assert_rejected(&with(&misspelled), &misspelled_msg);
        assert_rejected(&with(&["--bogus"]), "unexpected argument '--bogus'");
        let twice = [valued[0], valued[1], valued[0], valued[1]];
        assert_rejected(&with(&twice), "given more than once");
        assert_rejected(&with(&valued[..1]), "requires a value");
    }
    // The retired frontier kinds are errors that name the three left.
    for cmd in ["stats", "bc"] {
        for kind in ["bitmap", "queue"] {
            let argv: Vec<String> = [cmd, &graph, "--frontier", kind]
                .iter()
                .map(|a| a.to_string())
                .collect();
            assert_rejected(&argv, "push|pull|hybrid");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
