//! The compressed-sparse-row graph.

use crate::error::{GraphError, Result};
use crate::types::VertexId;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU8, Ordering};

/// Cached verdict of the "strictly ascending adjacency, no self-loops"
/// scan the triangle/clustering kernels require (a *sorted-simple
/// witness*).  Three states: unknown (never scanned), known-yes, and
/// known-no.  Provenance-trusted constructors (the simple-policy
/// builder, [`CsrGraph::from_simple_sorted_parts`], relabeling a
/// witnessed graph) pre-set known-yes so kernels skip the O(V+E)
/// validation entirely; [`CsrGraph::from_raw_parts`] graphs stay
/// unknown and are scanned — once — on first use.
///
/// The cell is deliberately excluded from equality: it is memoized
/// knowledge *about* the structure, not part of it.
struct SimpleWitness(AtomicU8);

const SIMPLE_UNKNOWN: u8 = 0;
const SIMPLE_YES: u8 = 1;
const SIMPLE_NO: u8 = 2;

impl SimpleWitness {
    const fn unknown() -> Self {
        Self(AtomicU8::new(SIMPLE_UNKNOWN))
    }

    const fn yes() -> Self {
        Self(AtomicU8::new(SIMPLE_YES))
    }

    fn get(&self) -> Option<bool> {
        match self.0.load(Ordering::Relaxed) {
            SIMPLE_YES => Some(true),
            SIMPLE_NO => Some(false),
            _ => None,
        }
    }

    fn set(&self, simple: bool) {
        let state = if simple { SIMPLE_YES } else { SIMPLE_NO };
        self.0.store(state, Ordering::Relaxed);
    }
}

impl Clone for SimpleWitness {
    fn clone(&self) -> Self {
        // The structure a clone copies is immutable, so the verdict
        // transfers with it.
        Self(AtomicU8::new(self.0.load(Ordering::Relaxed)))
    }
}

impl std::fmt::Debug for SimpleWitness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SimpleWitness({:?})", self.get())
    }
}

/// A static graph in compressed-sparse-row form (paper §IV-A).
///
/// `offsets` has `n + 1` entries; the out-neighbors of vertex `v` are
/// `targets[offsets[v] .. offsets[v + 1]]`, sorted ascending.  Undirected
/// graphs store each edge in both endpoint lists, so kernels never branch
/// on directedness — they always walk out-neighborhoods.
///
/// The structure is immutable after construction ("the size of the
/// allocated graph is fixed"), which is what lets every kernel share it
/// concurrently without locks.
#[derive(Debug, Clone)]
pub struct CsrGraph {
    offsets: Vec<usize>,
    targets: Vec<VertexId>,
    directed: bool,
    simple: SimpleWitness,
}

impl PartialEq for CsrGraph {
    fn eq(&self, other: &Self) -> bool {
        // The witness is memoized knowledge, not structure: two equal
        // graphs stay equal whether or not one has been scanned.
        self.offsets == other.offsets
            && self.targets == other.targets
            && self.directed == other.directed
    }
}

impl Eq for CsrGraph {}

impl CsrGraph {
    /// Assemble a graph from raw CSR arrays.
    ///
    /// Invariants checked: `offsets` is non-empty, monotone, starts at 0,
    /// ends at `targets.len()`, and every target is `< n`.  Adjacency
    /// lists are **not** required to be sorted here (the builder sorts);
    /// use [`CsrGraph::is_sorted`] to check.
    pub fn from_raw_parts(
        offsets: Vec<usize>,
        targets: Vec<VertexId>,
        directed: bool,
    ) -> Result<Self> {
        if offsets.is_empty() {
            return Err(GraphError::Format("offsets array must be non-empty".into()));
        }
        if offsets[0] != 0 {
            return Err(GraphError::Format("offsets must start at zero".into()));
        }
        if *offsets.last().unwrap() != targets.len() {
            return Err(GraphError::Format(format!(
                "last offset {} does not match target count {}",
                offsets.last().unwrap(),
                targets.len()
            )));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(GraphError::Format("offsets must be non-decreasing".into()));
        }
        let n = offsets.len() - 1;
        if let Some(&bad) = targets.par_iter().find_any(|&&t| (t as usize) >= n) {
            return Err(GraphError::VertexOutOfRange {
                vertex: bad as u64,
                num_vertices: n as u64,
            });
        }
        Ok(Self {
            offsets,
            targets,
            directed,
            simple: SimpleWitness::unknown(),
        })
    }

    /// Assemble a graph from CSR arrays whose invariants the *caller*
    /// guarantees — the zero-copy freeze path for producers that
    /// maintain CSR structure incrementally (e.g. the streaming graph's
    /// sorted adjacency).
    ///
    /// Unlike [`CsrGraph::from_raw_parts`], nothing is re-validated in
    /// release builds, so the call allocates nothing and touches nothing
    /// beyond the moved vectors.  Debug builds assert the full invariant
    /// set (monotone offsets from 0 to `targets.len()`, in-range
    /// targets), so a lying caller fails loudly under `cargo test`.
    /// This is not `unsafe` — a violated invariant yields wrong query
    /// answers or an index panic later, never memory unsafety.
    pub fn from_sorted_parts(offsets: Vec<usize>, targets: Vec<VertexId>, directed: bool) -> Self {
        debug_assert!(!offsets.is_empty(), "offsets array must be non-empty");
        debug_assert_eq!(offsets[0], 0, "offsets must start at zero");
        debug_assert_eq!(
            *offsets.last().unwrap(),
            targets.len(),
            "last offset must match target count"
        );
        debug_assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be non-decreasing"
        );
        debug_assert!(
            targets.iter().all(|&t| (t as usize) < offsets.len() - 1),
            "every target must be in range"
        );
        let out = Self {
            offsets,
            targets,
            directed,
            simple: SimpleWitness::unknown(),
        };
        debug_assert!(out.is_sorted(), "adjacency lists must arrive sorted");
        out
    }

    /// [`CsrGraph::from_sorted_parts`] with a stronger caller contract:
    /// every adjacency list is *strictly* ascending (no duplicate arcs)
    /// and free of self-loops — a simple graph.  Producers that maintain
    /// that invariant incrementally (the streaming graph's sorted
    /// adjacency) use this so the frozen snapshot carries a known-good
    /// sorted-simple witness and the clustering/triangle kernels skip
    /// their O(V+E) revalidation scan entirely.
    ///
    /// Same validation discipline as `from_sorted_parts`: nothing is
    /// checked in release builds, debug builds assert the full contract.
    pub fn from_simple_sorted_parts(
        offsets: Vec<usize>,
        targets: Vec<VertexId>,
        directed: bool,
    ) -> Self {
        let out = Self::from_sorted_parts(offsets, targets, directed);
        debug_assert!(
            out.scan_sorted_simple_seq(),
            "adjacency lists must arrive strictly ascending with no self-loops"
        );
        out.simple.set(true);
        out
    }

    /// A graph with `n` vertices and no edges.
    pub fn empty(n: usize, directed: bool) -> Self {
        Self {
            offsets: vec![0; n + 1],
            targets: Vec::new(),
            directed,
            simple: SimpleWitness::yes(),
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of *stored* directed arcs.  For an undirected graph this is
    /// twice the number of undirected edges.
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.targets.len()
    }

    /// Number of logical edges: arcs for a directed graph, arc-pairs for
    /// an undirected one.
    #[inline]
    pub fn num_edges(&self) -> usize {
        if self.directed {
            self.targets.len()
        } else {
            self.targets.len() / 2
        }
    }

    /// `true` if the graph was built as directed.
    #[inline]
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// The sorted out-neighbor slice of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// `true` if arc `u → v` exists (binary search; requires sorted
    /// adjacency, which the builder guarantees).
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Every out-degree, computed in parallel.
    pub fn degrees(&self) -> Vec<usize> {
        (0..self.num_vertices())
            .into_par_iter()
            .map(|v| self.offsets[v + 1] - self.offsets[v])
            .collect()
    }

    /// Iterate all stored arcs as `(source, target)`.
    pub fn iter_arcs(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.num_vertices() as VertexId)
            .flat_map(move |v| self.neighbors(v).iter().map(move |&t| (v, t)))
    }

    /// Borrow the offset array (`n + 1` entries).
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Borrow the target array.
    #[inline]
    pub fn targets(&self) -> &[VertexId] {
        &self.targets
    }

    /// `true` when every adjacency list is sorted ascending.
    pub fn is_sorted(&self) -> bool {
        (0..self.num_vertices() as VertexId)
            .into_par_iter()
            .all(|v| self.neighbors(v).windows(2).all(|w| w[0] <= w[1]))
    }

    /// `true` when every adjacency list is strictly ascending (no
    /// duplicate arcs) and free of self-loops — the precondition of the
    /// clustering/triangle kernels.
    ///
    /// The verdict is cached: provenance-trusted constructors (the
    /// simple-policy builder, [`CsrGraph::from_simple_sorted_parts`],
    /// relabeling or transposing an already-witnessed graph) pre-seed
    /// it, so for those graphs this is one relaxed atomic load.  A
    /// [`CsrGraph::from_raw_parts`] graph pays the parallel O(V+E) scan
    /// exactly once, then remembers the answer — the structure is
    /// immutable, so the verdict can never go stale.
    pub fn is_sorted_simple(&self) -> bool {
        if let Some(known) = self.simple.get() {
            return known;
        }
        let verdict = self.scan_sorted_simple();
        self.simple.set(verdict);
        verdict
    }

    /// The cached sorted-simple verdict without triggering a scan:
    /// `Some(_)` once known (pre-seeded by a trusted constructor or
    /// memoized by [`CsrGraph::is_sorted_simple`]), `None` when this
    /// graph has never been validated.
    pub fn sorted_simple_hint(&self) -> Option<bool> {
        self.simple.get()
    }

    /// Record that this graph is known sorted-simple through provenance
    /// (crate-internal: callers must actually guarantee it).
    pub(crate) fn mark_sorted_simple(&self) {
        debug_assert!(
            self.scan_sorted_simple_seq(),
            "mark_sorted_simple on a graph that is not sorted-simple"
        );
        self.simple.set(true);
    }

    /// The uncached full scan behind [`CsrGraph::is_sorted_simple`].
    fn scan_sorted_simple(&self) -> bool {
        (0..self.num_vertices() as VertexId)
            .into_par_iter()
            .all(|v| {
                let nbrs = self.neighbors(v);
                nbrs.windows(2).all(|w| w[0] < w[1]) && !nbrs.contains(&v)
            })
    }

    /// Sequential, allocation-free variant of the scan for use in
    /// `debug_assert!`s on paths whose tests meter heap allocation
    /// (the streaming snapshot's memory-budget test).
    fn scan_sorted_simple_seq(&self) -> bool {
        (0..self.num_vertices() as VertexId).all(|v| {
            let nbrs = self.neighbors(v);
            nbrs.windows(2).all(|w| w[0] < w[1]) && !nbrs.contains(&v)
        })
    }

    /// `true` when the stored arcs are symmetric (`u→v` implies `v→u`) —
    /// the structural invariant of an undirected graph.
    pub fn is_symmetric(&self) -> bool {
        (0..self.num_vertices() as VertexId)
            .into_par_iter()
            .all(|u| self.neighbors(u).iter().all(|&v| self.has_edge(v, u)))
    }

    /// Number of self-loop arcs stored.
    pub fn count_self_loops(&self) -> usize {
        (0..self.num_vertices() as VertexId)
            .into_par_iter()
            .map(|v| self.neighbors(v).iter().filter(|&&t| t == v).count())
            .sum()
    }

    /// The transpose (all arcs reversed).  For symmetric graphs this is
    /// structurally identical.
    ///
    /// Peak extra memory is one `targets`-sized buffer: arcs are
    /// scattered straight into the output through per-vertex cursors
    /// rather than staged in an atomic shadow copy.
    pub fn transpose(&self) -> CsrGraph {
        let out = transpose_of(self);
        // Reversing arcs preserves simplicity: loops map to loops and
        // duplicate arcs to duplicate arcs, and `transpose_of` re-sorts.
        if self.sorted_simple_hint() == Some(true) {
            out.simple.set(true);
        }
        out
    }

    /// The simple undirected graph underlying this one: `{u, v}` is an
    /// edge wherever `u → v` or `v → u` is an arc and `u != v`.
    ///
    /// Each vertex's list is the merge of its out-list with its in-list
    /// (from [`CsrGraph::transpose`]), duplicates and self-loops
    /// dropped, so the result equals the undirected simple-policy
    /// [`GraphBuilder`](crate::GraphBuilder) build of the same arcs
    /// without a second sort of the edge list, and carries the
    /// sorted-simple witness.  Requires sorted adjacency, which the
    /// builder guarantees.
    pub fn symmetrize(&self) -> CsrGraph {
        debug_assert!(self.is_sorted(), "symmetrize needs sorted adjacency");
        let n = self.num_vertices();
        let reversed = self.transpose();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(2 * self.num_arcs());
        offsets.push(0);
        for u in 0..n as VertexId {
            merge_neighbors(self.neighbors(u), reversed.neighbors(u), u, &mut targets);
            offsets.push(targets.len());
        }
        let out = CsrGraph {
            offsets,
            targets,
            directed: false,
            simple: SimpleWitness::unknown(),
        };
        out.mark_sorted_simple();
        out
    }

    /// Sort every adjacency list ascending (parallel over vertices).
    pub(crate) fn sort_adjacency(&mut self) {
        let offsets = &self.offsets;
        let n = offsets.len() - 1;
        // Split `targets` into per-vertex chunks for safe parallel sorting.
        let mut rest: &mut [VertexId] = &mut self.targets;
        let mut chunks: Vec<&mut [VertexId]> = Vec::with_capacity(n);
        let mut consumed = 0usize;
        for v in 0..n {
            let len = offsets[v + 1] - offsets[v];
            let (head, tail) = rest.split_at_mut(len);
            chunks.push(head);
            rest = tail;
            consumed += len;
        }
        debug_assert_eq!(consumed, *offsets.last().unwrap());
        chunks.into_par_iter().for_each(|c| c.sort_unstable());
    }

    /// Memory footprint of the CSR arrays in bytes (paper §V reports the
    /// "naive storage format" size of the September 2009 graph).
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.targets.len() * std::mem::size_of::<VertexId>()
    }
}

/// Transpose any [`GraphView`](crate::view::GraphView) into a plain CSR.
///
/// In-degrees are counted, prefix-summed into the output offsets, and
/// every arc is then scattered *directly* into the pre-sized target
/// buffer: each `fetch_add` cursor ticket names a distinct slot, so each
/// cell is written exactly once and plain stores through a shared
/// pointer are race-free.  The previous implementation staged the
/// scatter in a `Vec<AtomicU32>` shadow of `targets`, doubling peak
/// memory on exactly the large graphs the mmap/compressed backends
/// exist for.
pub(crate) fn transpose_of<G: crate::view::GraphView + ?Sized>(graph: &G) -> CsrGraph {
    let n = graph.num_vertices();
    // Count in-degrees.
    let in_deg = graphct_mt::AtomicUsizeArray::zeros(n);
    (0..n as VertexId).into_par_iter().for_each(|u| {
        for v in graph.neighbors_iter(u) {
            in_deg.fetch_add(v as usize, 1);
        }
    });
    let (offsets, total) = graphct_mt::prefix::exclusive_prefix_sum(&in_deg.to_vec());
    debug_assert_eq!(total, graph.num_arcs());
    let cursor = graphct_mt::AtomicUsizeArray::from_vec(offsets[..n].to_vec());
    let mut targets = vec![0 as VertexId; total];
    {
        struct Cells(*mut VertexId);
        // SAFETY: shared only so each thread can write the disjoint
        // slots its cursor tickets name.
        unsafe impl Sync for Cells {}
        let cells = Cells(targets.as_mut_ptr());
        let cells = &cells;
        (0..n as VertexId).into_par_iter().for_each(|u| {
            for v in graph.neighbors_iter(u) {
                let slot = cursor.fetch_add(v as usize, 1);
                // SAFETY: `slot < total` — cursor `v` starts at
                // `offsets[v]` and is bumped once per in-arc of `v`,
                // never passing `offsets[v + 1]` — and every ticket is
                // handed out exactly once.
                unsafe { *cells.0.add(slot) = u };
            }
        });
    }
    // Sort each adjacency list (scatter order is scheduling-dependent).
    let mut out = CsrGraph {
        offsets,
        targets,
        directed: graph.is_directed(),
        simple: SimpleWitness::unknown(),
    };
    out.sort_adjacency();
    out
}

/// Append the union of the sorted lists `a` and `b` to `out`, strictly
/// ascending and without `skip`.
fn merge_neighbors(a: &[VertexId], b: &[VertexId], skip: VertexId, out: &mut Vec<VertexId>) {
    let (mut i, mut j) = (0, 0);
    let mut last = None;
    loop {
        let v = match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) if x <= y => {
                i += 1;
                j += usize::from(x == y);
                x
            }
            (_, Some(&y)) => {
                j += 1;
                y
            }
            (Some(&x), None) => {
                i += 1;
                x
            }
            (None, None) => return,
        };
        if v != skip && last != Some(v) {
            out.push(v);
            last = Some(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> CsrGraph {
        // 0-1, 1-2, 0-2 undirected
        CsrGraph::from_raw_parts(vec![0, 2, 4, 6], vec![1, 2, 0, 2, 0, 1], false).unwrap()
    }

    #[test]
    fn raw_parts_validation() {
        assert!(CsrGraph::from_raw_parts(vec![], vec![], true).is_err());
        assert!(CsrGraph::from_raw_parts(vec![1, 2], vec![0, 0], true).is_err());
        assert!(CsrGraph::from_raw_parts(vec![0, 1], vec![], true).is_err());
        assert!(CsrGraph::from_raw_parts(vec![0, 2, 1], vec![0], true).is_err());
        // target out of range
        assert!(matches!(
            CsrGraph::from_raw_parts(vec![0, 1], vec![5], true),
            Err(GraphError::VertexOutOfRange { .. })
        ));
    }

    #[test]
    fn triangle_basics() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_arcs(), 6);
        assert_eq!(g.num_edges(), 3);
        assert!(!g.is_directed());
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert!(g.has_edge(0, 2));
        assert!(!g.has_edge(0, 0));
        assert_eq!(g.degrees(), vec![2, 2, 2]);
        assert!(g.is_sorted());
        assert!(g.is_symmetric());
        assert_eq!(g.count_self_loops(), 0);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty(4, true);
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(3), 0);
        assert!(g.neighbors(0).is_empty());
        assert_eq!(g.iter_arcs().count(), 0);
    }

    #[test]
    fn directed_edge_count_and_asymmetry() {
        // 0→1, 0→2, 1→2
        let g = CsrGraph::from_raw_parts(vec![0, 2, 3, 3], vec![1, 2, 2], true).unwrap();
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_arcs(), 3);
        assert!(!g.is_symmetric());
        let arcs: Vec<_> = g.iter_arcs().collect();
        assert_eq!(arcs, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn transpose_reverses_arcs() {
        let g = CsrGraph::from_raw_parts(vec![0, 2, 3, 3], vec![1, 2, 2], true).unwrap();
        let t = g.transpose();
        assert_eq!(t.num_arcs(), 3);
        assert_eq!(t.neighbors(0), &[] as &[VertexId]);
        assert_eq!(t.neighbors(1), &[0]);
        assert_eq!(t.neighbors(2), &[0, 1]);
        assert!(t.is_sorted());
    }

    #[test]
    fn transpose_of_symmetric_is_identical() {
        let g = triangle();
        let t = g.transpose();
        assert_eq!(g, t);
    }

    #[test]
    fn self_loops_counted() {
        let g = CsrGraph::from_raw_parts(vec![0, 1, 2], vec![0, 1], true).unwrap();
        assert_eq!(g.count_self_loops(), 2);
    }

    #[test]
    fn memory_bytes_positive() {
        let g = triangle();
        assert_eq!(
            g.memory_bytes(),
            4 * std::mem::size_of::<usize>() + 6 * std::mem::size_of::<VertexId>()
        );
    }

    #[test]
    fn raw_parts_witness_starts_unknown_and_memoizes() {
        let g = CsrGraph::from_raw_parts(vec![0, 2, 3, 4], vec![1, 2, 2, 1], false).unwrap();
        assert_eq!(g.sorted_simple_hint(), None, "no scan has happened yet");
        assert!(g.is_sorted_simple());
        assert_eq!(g.sorted_simple_hint(), Some(true), "verdict memoized");
    }

    #[test]
    fn non_simple_verdict_is_cached_too() {
        // Self-loop at vertex 0.
        let with_loop = CsrGraph::from_raw_parts(vec![0, 2, 3], vec![0, 1, 0], false).unwrap();
        assert!(!with_loop.is_sorted_simple());
        assert_eq!(with_loop.sorted_simple_hint(), Some(false));
        // Duplicate arc 0→1 (sorted but not strictly ascending).
        let with_dup = CsrGraph::from_raw_parts(vec![0, 2, 2], vec![1, 1], true).unwrap();
        assert!(!with_dup.is_sorted_simple());
    }

    #[test]
    fn trusted_constructors_preseed_the_witness() {
        assert_eq!(
            CsrGraph::empty(4, false).sorted_simple_hint(),
            Some(true),
            "empty graph is vacuously simple"
        );
        let g = CsrGraph::from_simple_sorted_parts(vec![0, 1, 2], vec![1, 0], false);
        assert_eq!(g.sorted_simple_hint(), Some(true));
    }

    #[test]
    fn witness_survives_clone_and_transpose() {
        let g = CsrGraph::from_simple_sorted_parts(vec![0, 2, 3, 4], vec![1, 2, 0, 0], true);
        assert_eq!(g.clone().sorted_simple_hint(), Some(true));
        assert_eq!(
            g.transpose().sorted_simple_hint(),
            Some(true),
            "transposing a simple graph keeps it simple"
        );
        // An unwitnessed source stays unwitnessed through transpose.
        let raw = CsrGraph::from_raw_parts(vec![0, 1, 2], vec![1, 0], false).unwrap();
        assert_eq!(raw.transpose().sorted_simple_hint(), None);
    }

    #[test]
    fn symmetrize_merges_both_directions() {
        // 0→1, 1→0, 0→2, 2→3 plus a self-loop at 3 and isolated 4.
        let g =
            CsrGraph::from_raw_parts(vec![0, 2, 3, 4, 5, 5], vec![1, 2, 0, 3, 3], true).unwrap();
        let u = g.symmetrize();
        assert!(!u.is_directed());
        assert_eq!(u.offsets(), &[0, 2, 3, 5, 6, 6]);
        assert_eq!(u.targets(), &[1, 2, 0, 0, 3, 2]);
        assert_eq!(u.sorted_simple_hint(), Some(true));
        assert!(u.is_symmetric());
        assert_eq!(
            CsrGraph::empty(0, true).symmetrize(),
            CsrGraph::empty(0, false)
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn symmetrize_equals_the_undirected_build(
            n in 0usize..40,
            raw in proptest::collection::vec(
                (proptest::any::<u32>(), proptest::any::<u32>(), proptest::any::<bool>()),
                0..120,
            ),
        ) {
            use crate::{EdgeList, GraphBuilder};
            let mut arcs = EdgeList::new();
            if n > 0 {
                for (s, t, mutual) in raw {
                    let (s, t) = (s % n as u32, t % n as u32);
                    arcs.push(s, t);
                    if mutual {
                        arcs.push(t, s);
                    }
                }
            }
            let directed = GraphBuilder::directed().num_vertices(n).build(&arcs).unwrap();
            let expected = GraphBuilder::undirected()
                .num_vertices(n)
                .build(&EdgeList::from_pairs(directed.iter_arcs().collect()))
                .unwrap();
            let got = directed.symmetrize();
            proptest::prop_assert_eq!(got.offsets(), expected.offsets());
            proptest::prop_assert_eq!(got.targets(), expected.targets());
            proptest::prop_assert_eq!(got.is_directed(), expected.is_directed());
            proptest::prop_assert_eq!(got.sorted_simple_hint(), expected.sorted_simple_hint());
            proptest::prop_assert_eq!(got.sorted_simple_hint(), Some(true));
        }
    }

    #[test]
    fn equality_ignores_the_witness() {
        let seeded = CsrGraph::from_simple_sorted_parts(vec![0, 1, 2], vec![1, 0], false);
        let raw = CsrGraph::from_raw_parts(vec![0, 1, 2], vec![1, 0], false).unwrap();
        assert_eq!(seeded.sorted_simple_hint(), Some(true));
        assert_eq!(raw.sorted_simple_hint(), None);
        assert_eq!(seeded, raw, "memoized knowledge is not structure");
    }
}
