//! Bit-parallel multi-source BFS (MS-BFS).
//!
//! The paper's headline experiments — diameter estimation from 256 BFS
//! roots (§IV-A) and source-sampled betweenness — run *many independent
//! traversals over the same graph*.  Running them one-per-task leaves an
//! order of magnitude on the table: every search re-streams the same
//! adjacency lists through the cache.  MS-BFS (Then et al., VLDB 2014)
//! amortizes that stream by batching up to 64 sources into the lanes of
//! a single `u64` per vertex ([`graphct_mt::AtomicBitMatrix`]): one
//! adjacency scan advances *all* sources a level at once, and the claim
//! that costs single-source BFS one compare-exchange per vertex becomes
//! one `fetch_or` per vertex *per batch*.
//!
//! Where GraphCT leaned on the Cray XMT's hardware thread contexts to
//! keep 64 traversal streams in flight, [`MsBfs`] keeps 64 searches in
//! flight inside each word — the commodity substitute for that hardware
//! concurrency (see DESIGN.md § Batched traversal).
//!
//! Each wave expands every source's frontier one level, choosing push or
//! pull with the same [`decide_direction`] heuristic as [`HybridBfs`]
//! (aggregated over the batch) and reusing the engine's cached transpose
//! for bottom-up waves.  Waves are recorded as [`WaveRecord`]s and, when
//! a trace session is active, emitted as `msbfs_wave` events.
//!
//! Correctness contract: per-source levels are **bit-identical** to
//! [`sequential_bfs_levels`](crate::bfs::sequential_bfs_levels) — the
//! equivalence suite asserts exactly that.

use crate::bfs::{decide_direction, max_level, Direction, HybridBfs, UNREACHED};
use graphct_core::{CsrGraph, GraphView, VertexId};
use graphct_mt::{AtomicBitMatrix, AtomicU32Array};
use rayon::prelude::*;

/// Widest batch one wave can carry: the lane count of a `u64` word.
pub const MAX_BATCH: usize = 64;

/// Default batch width for callers that chunk a longer source list
/// (diameter estimation, `--batch` on the CLI).
pub const DEFAULT_BATCH: usize = MAX_BATCH;

/// One executed MS-BFS wave: the decision inputs and work of a single
/// batched level expansion, mirroring [`crate::bfs::LevelRecord`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaveRecord {
    /// Depth of the frontier being expanded (sources are depth 0).
    pub depth: u32,
    /// Direction the heuristic chose for this wave.
    pub direction: Direction,
    /// Sources in the batch (lanes in use).
    pub batch: usize,
    /// Popcount of the OR of all frontier words: sources still actively
    /// expanding.  Shrinks mid-run as searches exhaust their components.
    pub active_sources: u32,
    /// Vertices with at least one frontier lane set before expansion.
    pub frontier_vertices: usize,
    /// Edges inspected while expanding this wave.
    pub edges_inspected: usize,
}

/// Result of [`MsBfs::run_batch`]: per-source levels plus per-wave
/// traversal statistics.
#[derive(Debug, Clone)]
pub struct MsBfsRun {
    /// `levels[b][v]` is source `b`'s BFS level of vertex `v`
    /// ([`UNREACHED`] where not reachable) — one entry per source, in
    /// input order.
    pub levels: Vec<Vec<u32>>,
    /// Every executed wave, in depth order.
    pub waves: Vec<WaveRecord>,
}

/// Bit-parallel multi-source BFS engine over a [`HybridBfs`]'s cached
/// state (graph, degree table, and — for directed pull — transpose).
///
/// The borrowed engine's [`BfsConfig`] governs the per-wave direction
/// choice exactly as it does single-source runs: forced push/pull
/// configs force every wave, hybrid switches on the aggregated
/// frontier-edge heuristic.
pub struct MsBfs<'a, 'g, G: GraphView = CsrGraph> {
    engine: &'a HybridBfs<'g, G>,
}

impl<'a, 'g, G: GraphView> MsBfs<'a, 'g, G> {
    /// Batched engine sharing `engine`'s cached transpose and degrees.
    pub fn new(engine: &'a HybridBfs<'g, G>) -> Self {
        Self { engine }
    }

    /// Run one batch of up to [`MAX_BATCH`] sources; lane `b` of every
    /// word belongs to `sources[b]`.  Duplicate sources are legal (each
    /// occupies its own lane).
    ///
    /// # Panics
    /// When `sources.len() > MAX_BATCH` or any source id is out of
    /// range (programmer errors, per the crate's fallibility rules).
    pub fn run_batch(&self, sources: &[VertexId]) -> MsBfsRun {
        let k = sources.len();
        assert!(
            k <= MAX_BATCH,
            "a wave carries at most {MAX_BATCH} sources, got {k}"
        );
        let graph = self.engine.graph();
        let n = graph.num_vertices();
        for &s in sources {
            assert!((s as usize) < n, "source vertex out of range");
        }
        if k == 0 {
            return MsBfsRun {
                levels: Vec::new(),
                waves: Vec::new(),
            };
        }
        let config = self.engine.config();
        let degrees = self.engine.degrees();
        let transpose = self.engine.cached_transpose();
        // All lanes in use for this batch; `seen == full` means a vertex
        // owes no search anything more.
        let full = if k == MAX_BATCH {
            u64::MAX
        } else {
            (1u64 << k) - 1
        };

        let levels = AtomicU32Array::filled(k * n, UNREACHED);
        let seen = AtomicBitMatrix::new(n);
        // Double-buffered frontier words: `frontier` is read-only during
        // a wave, `next` collects claims, and only touched rows are
        // cleared between waves (an O(frontier) sweep, not O(n)).
        let mut frontier = AtomicBitMatrix::new(n);
        let mut next = AtomicBitMatrix::new(n);
        for (b, &s) in sources.iter().enumerate() {
            let bit = 1u64 << b;
            seen.fetch_or(s as usize, bit);
            frontier.fetch_or(s as usize, bit);
            levels.store(b * n + s as usize, 0);
        }
        let mut queue: Vec<VertexId> = sources.to_vec();
        queue.sort_unstable();
        queue.dedup();

        let mut depth = 0u32;
        let mut frontier_edges: usize = queue.iter().map(|&v| degrees[v as usize]).sum();
        let mut unexplored_edges = graph.num_arcs().saturating_sub(frontier_edges);
        let mut direction = Direction::Push;
        let mut waves = Vec::new();
        // Vertices still missing at least one lane, maintained lazily
        // for pull waves exactly like `HybridBfs`'s unvisited list.
        let mut unvisited: Vec<VertexId> = Vec::new();
        let mut unvisited_built = false;

        while !queue.is_empty() {
            let frontier_vertices = queue.len();
            direction = decide_direction(
                config,
                direction,
                frontier_vertices,
                frontier_edges,
                unexplored_edges,
                n,
            );
            let active = queue
                .iter()
                .fold(0u64, |acc, &v| acc | frontier.load(v as usize));
            let wave_start = graphct_trace::enabled().then(std::time::Instant::now);
            let (next_queue, inspected) = match direction {
                Direction::Push => {
                    let nq = push_wave(graph, &queue, &frontier, &seen, &next);
                    // Settle: fold the claimed lanes into `seen` and
                    // assign levels.  Each claimed vertex is settled by
                    // exactly one task (the queue is deduplicated by the
                    // fetch_or winner), so plain level stores suffice.
                    nq.par_iter().for_each(|&v| {
                        let w = next.load(v as usize);
                        seen.fetch_or(v as usize, w);
                        store_levels(&levels, n, v, w, depth + 1);
                    });
                    (nq, frontier_edges)
                }
                Direction::Pull => {
                    if unvisited_built {
                        unvisited.retain(|&v| seen.load(v as usize) != full);
                    } else {
                        unvisited = (0..n as VertexId)
                            .filter(|&v| seen.load(v as usize) != full)
                            .collect();
                        unvisited_built = true;
                    }
                    // Pull along in-edges: the cached transpose when the
                    // engine built one, the (symmetric) graph otherwise.
                    match transpose {
                        Some(t) => pull_wave(
                            t, &unvisited, full, &frontier, &seen, &next, &levels, n, depth,
                        ),
                        None => pull_wave(
                            graph, &unvisited, full, &frontier, &seen, &next, &levels, n, depth,
                        ),
                    }
                }
            };
            if let Some(t) = wave_start {
                crate::telemetry::MSBFS_WAVE_NS.record_duration(t.elapsed());
            }
            let record = WaveRecord {
                depth,
                direction,
                batch: k,
                active_sources: active.count_ones(),
                frontier_vertices,
                edges_inspected: inspected,
            };
            if graphct_trace::enabled() {
                emit_wave_event(&record);
            }
            waves.push(record);
            // Retire the expanded frontier: clear its rows so the
            // buffer comes back all-zero, then swap in the new one.
            for &v in &queue {
                frontier.store(v as usize, 0);
            }
            std::mem::swap(&mut frontier, &mut next);
            queue = next_queue;
            frontier_edges = queue.iter().map(|&v| degrees[v as usize]).sum();
            unexplored_edges = unexplored_edges.saturating_sub(frontier_edges);
            depth += 1;
        }

        if graphct_trace::enabled() {
            report_batch_telemetry(&waves);
        }
        let flat = levels.into_vec();
        MsBfsRun {
            levels: flat.chunks(n).map(<[u32]>::to_vec).collect(),
            waves,
        }
    }

    /// Levels for every source, processed in `batch`-wide waves
    /// (`batch` is clamped to `1..=MAX_BATCH`).  Output order matches
    /// `sources`; every entry is bit-identical to
    /// [`sequential_bfs_levels`](crate::bfs::sequential_bfs_levels).
    pub fn levels_many(&self, sources: &[VertexId], batch: usize) -> Vec<Vec<u32>> {
        let batch = batch.clamp(1, MAX_BATCH);
        let mut out = Vec::with_capacity(sources.len());
        for chunk in sources.chunks(batch) {
            out.extend(self.run_batch(chunk).levels);
        }
        out
    }

    /// Observed eccentricity (maximum finite level) per source, in
    /// `batch`-wide waves — the reduction diameter estimation needs.
    pub fn eccentricities(&self, sources: &[VertexId], batch: usize) -> Vec<u32> {
        let batch = batch.clamp(1, MAX_BATCH);
        let mut out = Vec::with_capacity(sources.len());
        for chunk in sources.chunks(batch) {
            out.extend(self.run_batch(chunk).levels.iter().map(|lv| max_level(lv)));
        }
        out
    }
}

/// Top-down wave: every frontier vertex delivers its lane word to each
/// out-neighbor, claiming not-yet-seen lanes with one `fetch_or`.  A
/// vertex enters the next queue exactly once — when its `next` word
/// transitions from zero (the returned `prev == 0` from the first
/// winning fetch_or).
fn push_wave<G: GraphView>(
    graph: &G,
    queue: &[VertexId],
    frontier: &AtomicBitMatrix,
    seen: &AtomicBitMatrix,
    next: &AtomicBitMatrix,
) -> Vec<VertexId> {
    queue
        .par_iter()
        .flat_map_iter(|&u| {
            let fu = frontier.load(u as usize);
            graph.neighbors_iter(u).filter(move |&v| {
                let new = fu & !seen.load(v as usize);
                new != 0 && next.fetch_or(v as usize, new) == 0
            })
        })
        .collect()
}

/// Bottom-up wave: every vertex still owing lanes gathers the frontier
/// words of its in-neighbors, stopping early once every wanted lane is
/// covered.  Exactly one task owns each row, so `seen`/`next`/level
/// updates need no claims.  Returns the claimed vertices and the edges
/// probed.
#[allow(clippy::too_many_arguments)]
fn pull_wave<G: GraphView>(
    in_csr: &G,
    unvisited: &[VertexId],
    full: u64,
    frontier: &AtomicBitMatrix,
    seen: &AtomicBitMatrix,
    next: &AtomicBitMatrix,
    levels: &AtomicU32Array,
    n: usize,
    depth: u32,
) -> (Vec<VertexId>, usize) {
    let inspected: usize = unvisited
        .par_iter()
        .map(|&v| {
            let vi = v as usize;
            let wanted = full & !seen.load(vi);
            let mut gather = 0u64;
            let mut probes = 0usize;
            for u in in_csr.neighbors_iter(v) {
                probes += 1;
                gather |= frontier.load(u as usize);
                if gather & wanted == wanted {
                    break;
                }
            }
            let new = gather & wanted;
            if new != 0 {
                next.store(vi, new);
                seen.fetch_or(vi, new);
                store_levels(levels, n, v, new, depth + 1);
            }
            probes
        })
        .sum();
    let claimed: Vec<VertexId> = unvisited
        .par_iter()
        .copied()
        .filter(|&v| next.load(v as usize) != 0)
        .collect();
    (claimed, inspected)
}

/// Assign `depth` to every lane set in `bits` for vertex `v`.
#[inline]
fn store_levels(levels: &AtomicU32Array, n: usize, v: VertexId, mut bits: u64, depth: u32) {
    while bits != 0 {
        let b = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        levels.store(b * n + v as usize, depth);
    }
}

/// Per-wave telemetry record, kept out of line so the untraced hot path
/// carries none of the field-formatting code.
#[cold]
#[inline(never)]
fn emit_wave_event(record: &WaveRecord) {
    graphct_trace::event!(
        "msbfs_wave",
        depth = record.depth,
        batch = record.batch,
        active = record.active_sources,
        dir = record.direction.as_str(),
        frontier_vertices = record.frontier_vertices,
        edges_inspected = record.edges_inspected,
    );
}

/// End-of-batch counters, behind one `enabled()` check.
#[cold]
#[inline(never)]
fn report_batch_telemetry(waves: &[WaveRecord]) {
    crate::telemetry::MSBFS_BATCHES.incr();
    crate::telemetry::MSBFS_WAVES.add(waves.len() as u64);
    crate::telemetry::MSBFS_EDGES_INSPECTED
        .add(waves.iter().map(|w| w.edges_inspected as u64).sum());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::{sequential_bfs_levels, BfsConfig};
    use graphct_core::builder::{build_directed_simple, build_undirected_simple};
    use graphct_core::EdgeList;

    fn graph(edges: &[(u32, u32)]) -> CsrGraph {
        build_undirected_simple(&EdgeList::from_pairs(edges.to_vec())).unwrap()
    }

    fn assert_oracle(g: &CsrGraph, sources: &[VertexId], batch: usize) {
        let engine = HybridBfs::new(g);
        let ms = MsBfs::new(&engine);
        let got = ms.levels_many(sources, batch);
        assert_eq!(got.len(), sources.len());
        for (&s, lv) in sources.iter().zip(&got) {
            assert_eq!(lv, &sequential_bfs_levels(g, s), "source {s} batch {batch}");
        }
    }

    #[test]
    fn single_source_matches_oracle() {
        let g = graph(&[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (2, 5)]);
        assert_oracle(&g, &[0], 1);
        assert_oracle(&g, &[3], 64);
    }

    #[test]
    fn full_width_batch_matches_oracle() {
        let mut edges = Vec::new();
        let mut x = 5u64;
        for _ in 0..300 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let s = ((x >> 32) % 100) as u32;
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let t = ((x >> 32) % 100) as u32;
            edges.push((s, t));
        }
        let g = graph(&edges);
        let sources: Vec<u32> = (0..64u32).map(|i| (i * 7) % 100).collect();
        assert_oracle(&g, &sources, 64);
    }

    #[test]
    fn duplicate_sources_each_get_a_lane() {
        let g = graph(&[(0, 1), (1, 2)]);
        let engine = HybridBfs::new(&g);
        let run = MsBfs::new(&engine).run_batch(&[2, 2, 0]);
        assert_eq!(run.levels[0], run.levels[1]);
        assert_eq!(run.levels[0], sequential_bfs_levels(&g, 2));
        assert_eq!(run.levels[2], sequential_bfs_levels(&g, 0));
    }

    #[test]
    fn directed_pull_uses_shared_transpose() {
        let g = build_directed_simple(&EdgeList::from_pairs(vec![
            (0, 1),
            (1, 2),
            (2, 3),
            (0, 3),
            (3, 4),
            (4, 0),
        ]))
        .unwrap();
        for cfg in [
            BfsConfig::push_only(),
            BfsConfig::pull_only(),
            BfsConfig::hybrid(),
        ] {
            let engine = HybridBfs::with_config(&g, cfg);
            let ms = MsBfs::new(&engine);
            let sources = [0u32, 2, 4];
            for (&s, lv) in sources.iter().zip(ms.levels_many(&sources, 64)) {
                assert_eq!(lv, sequential_bfs_levels(&g, s), "{:?}", cfg.frontier);
            }
        }
    }

    #[test]
    fn forced_directions_force_every_wave() {
        let n = 2000u32;
        let edges: Vec<(u32, u32)> = (1..n).map(|v| (0, v)).collect();
        let g = graph(&edges);
        let push_engine = HybridBfs::with_config(&g, BfsConfig::push_only());
        let run = MsBfs::new(&push_engine).run_batch(&[0, 1, 5]);
        assert!(run.waves.iter().all(|w| w.direction == Direction::Push));
        let pull_engine = HybridBfs::with_config(&g, BfsConfig::pull_only());
        let run = MsBfs::new(&pull_engine).run_batch(&[0, 1, 5]);
        assert!(run.waves.iter().all(|w| w.direction == Direction::Pull));
        assert_eq!(run.levels[0], sequential_bfs_levels(&g, 0));
    }

    #[test]
    fn hub_batch_takes_a_pull_wave_and_matches() {
        let n = 4000u32;
        let edges: Vec<(u32, u32)> = (1..n).map(|v| (0, v)).collect();
        let g = graph(&edges);
        let engine = HybridBfs::new(&g);
        let run = MsBfs::new(&engine).run_batch(&[0, 7, 99]);
        assert!(
            run.waves.iter().any(|w| w.direction == Direction::Pull),
            "expected a pull wave on the hub, got {:?}",
            run.waves
        );
        for (b, &s) in [0u32, 7, 99].iter().enumerate() {
            assert_eq!(run.levels[b], sequential_bfs_levels(&g, s));
        }
    }

    #[test]
    fn active_mask_shrinks_when_a_source_exhausts() {
        // Source 4 lives in a 2-vertex component and exhausts after one
        // wave; sources 0/1 keep walking the path.
        let g = graph(&[(0, 1), (1, 2), (2, 3), (4, 5)]);
        let engine = HybridBfs::new(&g);
        let run = MsBfs::new(&engine).run_batch(&[0, 4]);
        assert_eq!(run.waves[0].active_sources, 2);
        let last = run.waves.last().unwrap();
        assert_eq!(last.active_sources, 1, "waves: {:?}", run.waves);
        assert_eq!(run.levels[0], sequential_bfs_levels(&g, 0));
        assert_eq!(run.levels[1], sequential_bfs_levels(&g, 4));
    }

    #[test]
    fn empty_batch_is_empty() {
        let g = graph(&[(0, 1)]);
        let engine = HybridBfs::new(&g);
        let run = MsBfs::new(&engine).run_batch(&[]);
        assert!(run.levels.is_empty());
        assert!(run.waves.is_empty());
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn oversized_batch_panics() {
        let g = graph(&[(0, 1)]);
        let engine = HybridBfs::new(&g);
        let sources = vec![0u32; 65];
        MsBfs::new(&engine).run_batch(&sources);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_source_panics() {
        let g = graph(&[(0, 1)]);
        let engine = HybridBfs::new(&g);
        MsBfs::new(&engine).run_batch(&[9]);
    }

    #[test]
    fn eccentricities_match_per_source_max_levels() {
        let g = graph(&[(0, 1), (1, 2), (2, 3), (3, 4), (5, 6)]);
        let engine = HybridBfs::new(&g);
        let ms = MsBfs::new(&engine);
        let sources = [0u32, 2, 5];
        let ecc = ms.eccentricities(&sources, 2);
        let expect: Vec<u32> = sources
            .iter()
            .map(|&s| max_level(&sequential_bfs_levels(&g, s)))
            .collect();
        assert_eq!(ecc, expect);
    }
}
