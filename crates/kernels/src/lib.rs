//! # graphct-kernels — parallel analysis kernels
//!
//! The analysis kernels GraphCT ships (paper §II-A, §IV-A): breadth-first
//! search, connected components, betweenness centrality (exact and
//! source-sampled approximate), k-betweenness centrality, k-core
//! extraction, per-vertex clustering coefficients, degree statistics, and
//! graph diameter estimation.
//!
//! All kernels share the immutable [`CsrGraph`](graphct_core::CsrGraph)
//! and exploit two levels of parallelism, mirroring the paper's §II-B:
//!
//! * **coarse** — independent source vertices (betweenness runs "across
//!   every source vertex s … computed independently and in parallel"),
//!   mapped to rayon tasks with per-task workspaces;
//! * **fine** — parallel loops over frontiers/edges synchronized only by
//!   atomic fetch-and-add (the one primitive the paper requires, §II-B),
//!   mapped to rayon parallel iterators over [`graphct_mt`] atomic arrays.
//!
//! Determinism: every sampled kernel takes an explicit seed and derives
//! per-task RNGs by index, so results are bit-reproducible across runs
//! and thread counts (floating-point merge order is fixed by reducing in
//! source order).
//!
//! ## Fallibility
//!
//! Kernels follow one rule for error handling:
//!
//! * **Infallible kernels return their result bare.**  A kernel whose
//!   only preconditions are structural invariants the [`CsrGraph`]
//!   builder already guarantees (valid offsets, in-range targets) cannot
//!   fail at runtime — [`connected_components`], [`core_numbers`], [`degree_statistics`],
//!   [`HybridBfs::levels`], and friends return `Vec`/struct directly.
//! * **Kernels with *configuration* preconditions return
//!   `Result<_, GraphError>`.**  Anything that validates a caller-supplied
//!   spec — a sampling fraction outside `[0, 1]`
//!   ([`betweenness_centrality`], [`k_betweenness_centrality`]) —
//!   reports the bad argument as
//!   [`GraphError::InvalidArgument`](graphct_core::GraphError) instead of
//!   panicking.
//! * **Out-of-range vertex ids are programmer errors and panic.**  A
//!   source vertex `>= n` is a bug at the call site, not a recoverable
//!   condition; `debug`-style asserts (documented under `# Panics`) keep
//!   the hot paths free of per-call `Result` plumbing.

pub mod betweenness;
pub mod bfs;
pub mod clustering;
pub mod components;
pub mod degree;
pub mod diameter;
pub mod kbetweenness;
pub mod kcore;
pub mod msbfs;
pub mod query;
pub mod telemetry;
mod traverse;
pub mod triangles;

pub use betweenness::{
    betweenness_centrality, BetweennessConfig, BetweennessResult, SamplingSpec, SamplingStrategy,
    SourceSelection,
};
pub use bfs::{
    decide_direction, sequential_bfs_levels, BfsConfig, Direction, FrontierKind, HybridBfs,
    LevelRecord, UNREACHED,
};
pub use clustering::{
    clustering_coefficients, clustering_summary, global_clustering, naive_triangle_counts,
    triangle_counts, ClusteringSummary,
};
pub use components::{connected_components, ComponentSummary};
pub use degree::{degree_statistics, DegreeStats};
pub use diameter::{estimate_diameter, estimate_diameter_batched, DiameterEstimate};
pub use kbetweenness::{k_betweenness_centrality, KBetweennessConfig};
pub use kcore::{core_numbers, kcore_subgraph};
pub use msbfs::{MsBfs, MsBfsRun, WaveRecord, DEFAULT_BATCH, MAX_BATCH};
pub use query::{ego_net, top_k_betweenness, top_k_scores, EgoNet};
pub use triangles::{
    forward_triangle_counts, triad_census, triad_census_brute, triangle_stats, TriangleStats,
    TRIAD_CLASSES,
};
