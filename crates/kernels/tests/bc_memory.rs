//! Peak-memory guard for batched betweenness.
//!
//! The batched forward pass keeps each source's MS-BFS levels (4n
//! bytes) until that source is accumulated.  Holding every source's
//! levels at once made `samples = n` cost 4n² bytes, so one large
//! `/v1/query/topk?samples=` request could exhaust the host.  Sources
//! now go in waves of `MAX_BATCH`, each accumulated before the next is
//! traversed, so the extra high-water mark stays a few waves' worth of
//! levels however many sources are sampled.

use graphct_core::builder::build_undirected_simple;
use graphct_kernels::{betweenness_centrality, BetweennessConfig, MAX_BATCH};
use graphct_trace::CountingAllocator;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn batched_bc_holds_one_wave_of_levels_not_every_source() {
    let n = 4096;
    let g = build_undirected_simple(&graphct_gen::gnm(n, 2 * n, 11)).unwrap();
    let n = g.num_vertices();
    let mut batched = BetweennessConfig::sampled(n, 7);
    batched.batch = MAX_BATCH;

    // Warm up whatever lazy global state the parallel runtime allocates
    // on first use, so the measured window holds only the kernel's own.
    let small = build_undirected_simple(&graphct_gen::gnm(64, 128, 1)).unwrap();
    betweenness_centrality(&small, &batched).unwrap();

    let live_before = graphct_trace::alloc::live_bytes();
    graphct_trace::alloc::reset_peak();
    let got = betweenness_centrality(&g, &batched).unwrap();
    let extra_peak = graphct_trace::alloc::peak_bytes().saturating_sub(live_before);

    // Budget: eight waves of levels (MAX_BATCH · n u32 each) covers one
    // wave plus its transient copy, the per-chunk workspaces and score
    // vectors, and the engine's degree table.  Every source's levels at
    // once is n / MAX_BATCH = 64 waves.
    let wave_bytes = (MAX_BATCH * n * std::mem::size_of::<u32>()) as u64;
    let budget = 8 * wave_bytes;
    assert!(
        extra_peak < budget,
        "batched bc over {} sources peaked {extra_peak} extra bytes; budget {budget} \
         (one wave of levels is {wave_bytes} bytes)",
        got.sources.len()
    );
}
