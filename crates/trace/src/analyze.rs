//! Offline analysis over JSON-lines traces.
//!
//! Backs the `graphct trace` subcommand family: the std-only
//! [`json`](crate::json) reader parses a trace produced by
//! [`JsonLinesSink`](crate::JsonLinesSink), and the functions here turn
//! it into
//!
//! * folded flamegraph stacks ([`fold_stacks`] / [`render_folded`] —
//!   `a;b;c <exclusive_ns>` per leaf, the format `flamegraph.pl` and
//!   speedscope ingest),
//! * the critical path per root span ([`critical_paths`] — walk the
//!   heaviest child chain),
//! * per-level BFS push/pull work spread ([`level_imbalance`] — over the
//!   `bfs_level` records the hybrid kernel emits), and
//! * per-name histogram reports ([`collect_histograms`] — `graphct
//!   trace histo`).

use std::collections::{BTreeMap, HashMap};

use crate::json::{parse, Json};
use crate::schema::validate_line;

/// One parsed trace record (a flattened view of the JSON-lines schema).
#[derive(Debug, Clone)]
pub struct Rec {
    /// Microseconds since session start.
    pub ts_us: u64,
    /// Record kind (`span_enter`, `span_exit`, `point`, `histogram`,
    /// `counter`).
    pub kind: String,
    /// Span / event / counter name.
    pub name: String,
    /// Enclosing (or own, for span records) span id.
    pub span: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
    /// Emitting thread ordinal.
    pub thread: u64,
    /// Span duration (span_exit only; 0 otherwise).
    pub elapsed_ns: u64,
    /// Structured fields (`Json::Null` when absent).
    pub fields: Json,
}

impl Rec {
    /// Unsigned field lookup on `fields`.
    pub fn field_u64(&self, key: &str) -> Option<u64> {
        self.fields.get(key).and_then(Json::as_u64)
    }

    /// String field lookup on `fields`.
    pub fn field_str(&self, key: &str) -> Option<&str> {
        self.fields.get(key).and_then(Json::as_str)
    }
}

/// Parse (and schema-validate) a JSON-lines trace document.
pub fn read_trace(text: &str) -> Result<Vec<Rec>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        validate_line(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let v = parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let u = |key: &str| v.get(key).and_then(Json::as_u64).unwrap_or(0);
        let s = |key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_owned()
        };
        out.push(Rec {
            ts_us: u("ts_us"),
            kind: s("kind"),
            name: s("name"),
            span: u("span"),
            parent: u("parent"),
            thread: u("thread"),
            elapsed_ns: u("elapsed_ns"),
            fields: v.get("fields").cloned().unwrap_or(Json::Null),
        });
    }
    Ok(out)
}

/// Make a span name safe as a folded-stack path segment (`;` separates
/// segments, whitespace separates the count).
pub fn fold_segment(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c == ';' || c.is_whitespace() {
                '_'
            } else {
                c
            }
        })
        .collect()
}

/// Collapse a trace into folded stacks: each returned `(path, ns)` pair
/// is one output line, where `path` is `root;child;leaf` and `ns` is the
/// *exclusive* (self) time — total time in the span minus time in its
/// children.  Pure parents with zero self time are omitted (standard
/// flamegraph semantics); childless spans always appear.
pub fn fold_stacks(recs: &[Rec]) -> Vec<(String, u64)> {
    // Span id -> (segment, parent id), from the enter records.
    let mut meta: HashMap<u64, (String, u64)> = HashMap::new();
    for r in recs.iter().filter(|r| r.kind == "span_enter") {
        meta.insert(r.span, (fold_segment(&r.name), r.parent));
    }
    let path_of = |id: u64, fallback: &str| -> String {
        let mut segments = Vec::new();
        let mut cur = id;
        while cur != 0 {
            match meta.get(&cur) {
                Some((segment, parent)) => {
                    segments.push(segment.clone());
                    cur = *parent;
                }
                None => break,
            }
        }
        if segments.is_empty() {
            return fold_segment(fallback);
        }
        segments.reverse();
        segments.join(";")
    };

    let mut total: BTreeMap<String, u64> = BTreeMap::new();
    let mut child_time: HashMap<String, u64> = HashMap::new();
    for r in recs.iter().filter(|r| r.kind == "span_exit") {
        let path = path_of(r.span, &r.name);
        *total.entry(path.clone()).or_insert(0) += r.elapsed_ns;
        if let Some(pos) = path.rfind(';') {
            *child_time.entry(path[..pos].to_owned()).or_insert(0) += r.elapsed_ns;
        }
    }
    total
        .iter()
        .filter_map(|(path, &t)| {
            let has_children = child_time.contains_key(path.as_str());
            let exclusive = t.saturating_sub(child_time.get(path.as_str()).copied().unwrap_or(0));
            if exclusive > 0 || !has_children {
                Some((path.clone(), exclusive))
            } else {
                None
            }
        })
        .collect()
}

/// Render folded stacks as text: one `path count` line each.
pub fn render_folded(stacks: &[(String, u64)]) -> String {
    let mut out = String::new();
    for (path, ns) in stacks {
        out.push_str(path);
        out.push(' ');
        out.push_str(&ns.to_string());
        out.push('\n');
    }
    out
}

/// Parse folded-stack text back into `(path, count)` pairs (the
/// round-trip direction: tests read `/profile` and `--profile-out`
/// dumps with it).
pub fn parse_folded(text: &str) -> Result<Vec<(String, u64)>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let (path, count) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no count", i + 1))?;
        if path.is_empty() || path.split(';').any(str::is_empty) {
            return Err(format!("line {}: empty path segment", i + 1));
        }
        let count: u64 = count
            .parse()
            .map_err(|_| format!("line {}: bad count '{count}'", i + 1))?;
        out.push((path.to_owned(), count));
    }
    Ok(out)
}

/// Render folded stacks as an indented ASCII flamegraph: one line per
/// path prefix, `#` bars proportional to *inclusive* count, widest
/// branch first among siblings.
pub fn render_ascii_flame(stacks: &[(String, u64)], width: usize) -> String {
    // Inclusive count of every path prefix.
    let mut inclusive: BTreeMap<String, u64> = BTreeMap::new();
    for (path, count) in stacks {
        let mut prefix = String::new();
        for segment in path.split(';') {
            if !prefix.is_empty() {
                prefix.push(';');
            }
            prefix.push_str(segment);
            *inclusive.entry(prefix.clone()).or_insert(0) += count;
        }
    }
    let root_total: u64 = stacks.iter().map(|(_, c)| c).sum();
    if root_total == 0 {
        return String::from("(no samples)\n");
    }
    // Children of each prefix, widest first.
    let mut children: BTreeMap<&str, Vec<(&str, u64)>> = BTreeMap::new();
    let mut roots: Vec<(&str, u64)> = Vec::new();
    for (path, &count) in &inclusive {
        match path.rfind(';') {
            Some(pos) => children
                .entry(&path[..pos])
                .or_default()
                .push((path, count)),
            None => roots.push((path, count)),
        }
    }
    for list in children.values_mut() {
        list.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
    }
    roots.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));

    let bar_width = width.clamp(20, 200);
    let mut out = String::new();
    let mut pending: Vec<(&str, u64, usize)> =
        roots.iter().rev().map(|&(p, c)| (p, c, 0)).collect();
    while let Some((path, count, indent)) = pending.pop() {
        let label = path.rsplit(';').next().unwrap_or(path);
        let share = count as f64 / root_total as f64;
        let bar = "#".repeat(((share * bar_width as f64).round() as usize).max(1));
        out.push_str(&format!(
            "{:indent$}{label:<28} {count:>8} {:>6.1}% |{bar}\n",
            "",
            100.0 * share,
            indent = indent * 2,
        ));
        if let Some(kids) = children.get(path) {
            for &(kid, kid_count) in kids.iter().rev() {
                pending.push((kid, kid_count, indent + 1));
            }
        }
    }
    out
}

/// One hop on a critical path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainNode {
    /// Span name.
    pub name: String,
    /// This span instance's duration.
    pub elapsed_ns: u64,
}

/// The longest span chain per root span name: for every distinct root
/// (parentless) span name, take its slowest instance and walk down,
/// always into the slowest child.  Chains are returned sorted by root
/// duration, heaviest first.
pub fn critical_paths(recs: &[Rec]) -> Vec<Vec<ChainNode>> {
    let mut meta: HashMap<u64, (String, u64)> = HashMap::new();
    for r in recs.iter().filter(|r| r.kind == "span_enter") {
        meta.insert(r.span, (r.name.clone(), r.parent));
    }
    let mut elapsed: HashMap<u64, u64> = HashMap::new();
    for r in recs.iter().filter(|r| r.kind == "span_exit") {
        elapsed.insert(r.span, r.elapsed_ns);
    }
    let mut children: HashMap<u64, Vec<u64>> = HashMap::new();
    for (&id, &(_, parent)) in &meta {
        if parent != 0 && elapsed.contains_key(&id) {
            children.entry(parent).or_default().push(id);
        }
    }
    // Slowest instance per root name.
    let mut roots: HashMap<&str, u64> = HashMap::new();
    for (&id, (name, parent)) in &meta {
        if *parent != 0 && meta.contains_key(parent) {
            continue;
        }
        let Some(&ns) = elapsed.get(&id) else {
            continue;
        };
        let best = roots.entry(name.as_str()).or_insert(id);
        if elapsed.get(best).copied().unwrap_or(0) < ns {
            *best = id;
        }
    }
    let mut chains: Vec<Vec<ChainNode>> = roots
        .values()
        .map(|&root| {
            let mut chain = Vec::new();
            let mut cur = root;
            loop {
                chain.push(ChainNode {
                    name: meta[&cur].0.clone(),
                    elapsed_ns: elapsed.get(&cur).copied().unwrap_or(0),
                });
                match children
                    .get(&cur)
                    .and_then(|kids| kids.iter().max_by_key(|k| elapsed.get(k).copied()))
                {
                    Some(&next) => cur = next,
                    None => break,
                }
            }
            chain
        })
        .collect();
    chains.sort_by_key(|c| std::cmp::Reverse(c.first().map_or(0, |n| n.elapsed_ns)));
    chains
}

/// Work statistics for one BFS direction, over `bfs_level` records.
#[derive(Debug, Clone, PartialEq)]
pub struct DirStats {
    /// Direction name as emitted (`push` / `pull`).
    pub direction: String,
    /// Levels run in this direction.
    pub levels: u64,
    /// Total edges inspected across those levels.
    pub total_edges: u64,
    /// Heaviest single level.
    pub max_edges: u64,
    /// Mean edges per level.
    pub mean_edges: f64,
    /// Imbalance ratio: `max / mean` (1.0 = perfectly even).
    pub spread: f64,
}

/// Per-level push/pull imbalance report.
#[derive(Debug, Clone, PartialEq)]
pub struct ImbalanceReport {
    /// Distinct BFS runs (enclosing span ids) seen.
    pub runs: u64,
    /// Per-direction statistics, sorted by direction name.
    pub dirs: Vec<DirStats>,
    /// The heaviest levels overall: `(level, direction, edges_inspected)`,
    /// descending, capped at ten.
    pub heaviest: Vec<(u64, String, u64)>,
}

/// Summarize `bfs_level` point events: how much edge-inspection work each
/// direction did per level, and where the spikes were.
pub fn level_imbalance(recs: &[Rec]) -> ImbalanceReport {
    let mut by_dir: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    let mut runs: Vec<u64> = Vec::new();
    let mut heaviest: Vec<(u64, String, u64)> = Vec::new();
    for r in recs
        .iter()
        .filter(|r| r.kind == "point" && r.name == "bfs_level")
    {
        let dir = r.field_str("dir").unwrap_or("unknown").to_owned();
        let edges = r.field_u64("edges_inspected").unwrap_or(0);
        let level = r.field_u64("level").unwrap_or(0);
        by_dir.entry(dir.clone()).or_default().push(edges);
        if !runs.contains(&r.span) {
            runs.push(r.span);
        }
        heaviest.push((level, dir, edges));
    }
    heaviest.sort_by_key(|&(_, _, edges)| std::cmp::Reverse(edges));
    heaviest.truncate(10);
    let dirs = by_dir
        .into_iter()
        .map(|(direction, edges)| {
            let levels = edges.len() as u64;
            let total: u64 = edges.iter().sum();
            let max = edges.iter().copied().max().unwrap_or(0);
            let mean = total as f64 / levels.max(1) as f64;
            DirStats {
                direction,
                levels,
                total_edges: total,
                max_edges: max,
                mean_edges: mean,
                spread: if mean > 0.0 { max as f64 / mean } else { 0.0 },
            }
        })
        .collect();
    ImbalanceReport {
        runs: runs.len() as u64,
        dirs,
        heaviest,
    }
}

/// One named histogram aggregated out of a trace's `histogram` records
/// (both end-of-session [`Histogram`](crate::Histogram) metric dumps and
/// pre-binned [`crate::histogram()`] events).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoReport {
    /// Histogram / metric name.
    pub name: String,
    /// Bin lower edges (ascending, starting at 0).
    pub edges: Vec<u64>,
    /// Per-bin observation counts.
    pub counts: Vec<u64>,
    /// Sum of raw observations (0 when the records carried no sum).
    pub sum: u64,
    /// Trace records merged into this report.
    pub records: u64,
}

impl HistoReport {
    /// Total observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Approximate quantile (see
    /// [`quantile_from_bins`](crate::histogram::quantile_from_bins)).
    pub fn quantile(&self, q: f64) -> f64 {
        crate::histogram::quantile_from_bins(&self.edges, &self.counts, q)
    }
}

/// Aggregate every `histogram` record in a trace by name, sorted by
/// name.  Records whose bin edges match are summed; a record with a
/// *different* edge layout replaces the accumulation (latest layout
/// wins — the same policy the summary sink applies live).
pub fn collect_histograms(recs: &[Rec]) -> Vec<HistoReport> {
    let mut by_name: BTreeMap<String, HistoReport> = BTreeMap::new();
    for r in recs.iter().filter(|r| r.kind == "histogram") {
        let nums = |key: &str| -> Vec<u64> {
            r.fields
                .get(key)
                .and_then(Json::as_arr)
                .map(|items| items.iter().filter_map(Json::as_u64).collect())
                .unwrap_or_default()
        };
        let edges = nums("edges");
        let counts = nums("counts");
        if edges.is_empty() || edges.len() != counts.len() {
            continue;
        }
        let sum = r.field_u64("sum").unwrap_or(0);
        match by_name.get_mut(&r.name) {
            Some(agg) if agg.edges == edges => {
                for (a, c) in agg.counts.iter_mut().zip(&counts) {
                    *a += c;
                }
                agg.sum += sum;
                agg.records += 1;
            }
            _ => {
                // First sighting, or an edge-layout change: (re)start.
                by_name.insert(
                    r.name.clone(),
                    HistoReport {
                        name: r.name.clone(),
                        edges,
                        counts,
                        sum,
                        records: 1,
                    },
                );
            }
        }
    }
    by_name.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{JsonLinesSink, Session};
    use std::sync::Arc;

    fn line(
        kind: &str,
        name: &str,
        span: u64,
        parent: u64,
        elapsed_ns: Option<u64>,
        fields: &str,
    ) -> String {
        let elapsed = elapsed_ns
            .map(|ns| format!(",\"elapsed_ns\":{ns}"))
            .unwrap_or_default();
        let fields = if fields.is_empty() {
            String::new()
        } else {
            format!(",\"fields\":{fields}")
        };
        format!(
            "{{\"ts_us\":1,\"kind\":\"{kind}\",\"name\":\"{name}\",\"span\":{span},\"parent\":{parent},\"thread\":0{elapsed}{fields}}}"
        )
    }

    /// script(10us) -> bc(8us) -> bfs(3us twice); bc self = 2us,
    /// script self = 2us.
    fn sample_trace() -> Vec<Rec> {
        let text = [
            line("span_enter", "script", 1, 0, None, ""),
            line("span_enter", "bc", 2, 1, None, "{\"sources\":2}"),
            line("span_enter", "bfs", 3, 2, None, ""),
            line(
                "point",
                "bfs_level",
                3,
                2,
                None,
                "{\"level\":0,\"dir\":\"push\",\"edges_inspected\":10}",
            ),
            line(
                "point",
                "bfs_level",
                3,
                2,
                None,
                "{\"level\":1,\"dir\":\"pull\",\"edges_inspected\":90}",
            ),
            line("span_exit", "bfs", 3, 2, Some(3_000), ""),
            line("span_enter", "bfs", 4, 2, None, ""),
            line(
                "point",
                "bfs_level",
                4,
                2,
                None,
                "{\"level\":0,\"dir\":\"push\",\"edges_inspected\":30}",
            ),
            line("span_exit", "bfs", 4, 2, Some(3_000), ""),
            line("span_exit", "bc", 2, 1, Some(8_000), ""),
            line("span_exit", "script", 1, 0, Some(10_000), ""),
            line(
                "counter",
                "edges",
                0,
                0,
                None,
                "{\"value\":7,\"gauge\":false}",
            ),
        ]
        .join("\n");
        read_trace(&text).unwrap()
    }

    #[test]
    fn collect_histograms_merges_matching_edges_and_restarts_on_mismatch() {
        let text = [
            line(
                "histogram",
                "bfs_wave_ns",
                0,
                0,
                None,
                "{\"edges\":[0,1,2],\"counts\":[1,2,3],\"sum\":10}",
            ),
            line(
                "histogram",
                "bfs_wave_ns",
                0,
                0,
                None,
                "{\"edges\":[0,1,2],\"counts\":[1,0,1],\"sum\":5}",
            ),
            line(
                "histogram",
                "degree",
                0,
                0,
                None,
                "{\"edges\":[0,1],\"counts\":[4,4]}",
            ),
            line(
                "histogram",
                "degree",
                0,
                0,
                None,
                "{\"edges\":[0,1,2],\"counts\":[1,1,1]}",
            ),
        ]
        .join("\n");
        let recs = read_trace(&text).unwrap();
        let reports = collect_histograms(&recs);
        assert_eq!(reports.len(), 2);

        let waves = &reports[0];
        assert_eq!(waves.name, "bfs_wave_ns");
        assert_eq!(waves.counts, vec![2, 2, 4], "matching edges accumulate");
        assert_eq!((waves.sum, waves.records, waves.count()), (15, 2, 8));

        let degree = &reports[1];
        assert_eq!(degree.edges.len(), 3, "edge-layout change restarts");
        assert_eq!((degree.records, degree.count()), (1, 3));
    }

    #[test]
    fn folded_stacks_compute_exclusive_time() {
        let recs = sample_trace();
        let stacks = fold_stacks(&recs);
        let get = |path: &str| stacks.iter().find(|(p, _)| p == path).map(|&(_, ns)| ns);
        assert_eq!(get("script;bc;bfs"), Some(6_000), "{stacks:?}");
        assert_eq!(get("script;bc"), Some(2_000));
        assert_eq!(get("script"), Some(2_000));
    }

    #[test]
    fn folded_round_trip() {
        let recs = sample_trace();
        let stacks = fold_stacks(&recs);
        let text = render_folded(&stacks);
        for l in text.lines() {
            // One `a;b;c <count>` line per leaf.
            let (path, count) = l.rsplit_once(' ').unwrap();
            assert!(!path.is_empty() && !path.contains(' '), "{l}");
            count.parse::<u64>().unwrap();
        }
        assert_eq!(parse_folded(&text).unwrap(), stacks);
    }

    #[test]
    fn fold_sanitizes_hostile_span_names() {
        let text = [
            line("span_enter", "outer name;x", 1, 0, None, ""),
            line("span_exit", "outer name;x", 1, 0, Some(500), ""),
        ]
        .join("\n");
        let stacks = fold_stacks(&read_trace(&text).unwrap());
        assert_eq!(stacks, vec![("outer_name_x".to_owned(), 500)]);
    }

    #[test]
    fn critical_path_walks_heaviest_chain() {
        let recs = sample_trace();
        let chains = critical_paths(&recs);
        assert_eq!(chains.len(), 1);
        let names: Vec<&str> = chains[0].iter().map(|n| n.name.as_str()).collect();
        assert_eq!(names, ["script", "bc", "bfs"]);
        assert_eq!(chains[0][0].elapsed_ns, 10_000);
    }

    #[test]
    fn imbalance_groups_by_direction() {
        let report = level_imbalance(&sample_trace());
        assert_eq!(report.runs, 2);
        let push = report.dirs.iter().find(|d| d.direction == "push").unwrap();
        assert_eq!(push.levels, 2);
        assert_eq!(push.total_edges, 40);
        assert_eq!(push.max_edges, 30);
        assert!((push.spread - 1.5).abs() < 1e-9);
        let pull = report.dirs.iter().find(|d| d.direction == "pull").unwrap();
        assert_eq!(pull.levels, 1);
        assert_eq!(report.heaviest[0], (1, "pull".to_owned(), 90));
    }

    /// End-to-end: a real session's JSONL trace folds and round-trips.
    #[test]
    fn real_session_trace_folds() {
        let (sink, buffer) = JsonLinesSink::to_buffer();
        let session = Session::start(Arc::new(sink));
        {
            let _outer = crate::span!("analyze_outer");
            {
                let _inner = crate::span!("analyze_inner");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        session.finish();
        let text = String::from_utf8(buffer.lock().unwrap().clone()).unwrap();
        let recs = read_trace(&text).unwrap();
        let stacks = fold_stacks(&recs);
        assert!(stacks
            .iter()
            .any(|(p, _)| p == "analyze_outer;analyze_inner"));
        assert_eq!(parse_folded(&render_folded(&stacks)).unwrap(), stacks);
    }
}
