//! # graphct-stream — temporal / streaming graph analytics
//!
//! The paper analyzes a snapshot but flags the temporal dimension as
//! ongoing work: "Characteristics change over time. This paper considers
//! only a snapshot, but ongoing work examines the data's temporal
//! aspects" (§I-B), citing the authors' companion study *"Massive
//! streaming data analytics: a case study with clustering coefficients"*
//! (MTAAP 2010, paper ref. [10]).  This crate implements that extension:
//!
//! * [`StreamingGraph`] — an undirected dynamic graph accepting batched
//!   edge insertions and deletions (the STINGER-style update model of
//!   ref. [10]);
//! * [`IncrementalClustering`] — exact per-vertex triangle counts and
//!   clustering coefficients maintained under updates, at
//!   O(deg(u) + deg(v)) per edge instead of a full recount;
//! * [`IncrementalComponents`] — connected components under insertions
//!   via union-find (deletions trigger a recompute, the standard
//!   trade-off of the streaming literature of that era), labelling each
//!   freeze's [`Membership`];
//! * [`SnapshotCell`] — epoch-tagged [`Snapshot`] freezes for the live
//!   query plane, each published with its membership.
//!
//! Everything is verified against from-scratch recomputation by the
//! static kernels in `graphct-kernels`.

pub mod clustering;
pub mod components;
pub mod graph;
pub mod snapshot;
pub mod telemetry;

pub use clustering::IncrementalClustering;
pub use components::{IncrementalComponents, Membership};
pub use graph::{EdgeUpdate, StreamingGraph};
pub use snapshot::{Snapshot, SnapshotCell};
