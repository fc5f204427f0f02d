//! # graphct-stream — temporal / streaming graph analytics
//!
//! The paper analyzes a snapshot but flags the temporal dimension as
//! ongoing work: "Characteristics change over time. This paper considers
//! only a snapshot, but ongoing work examines the data's temporal
//! aspects" (§I-B), citing the authors' companion study *"Massive
//! streaming data analytics: a case study with clustering coefficients"*
//! (MTAAP 2010, paper ref. [10]).  This crate holds the part of that
//! extension the live service runs:
//!
//! * [`StreamingGraph`] — an undirected dynamic graph accepting batched
//!   edge insertions and deletions (the STINGER-style update model of
//!   ref. [10]);
//! * [`SnapshotCell`] — epoch-tagged [`Snapshot`] freezes for the live
//!   query plane, each published with its component [`Membership`].
//!
//! Per-freeze analytics (clustering, components) run the static kernels
//! of `graphct-kernels` on the frozen CSR; the tests check every freeze
//! against them.

pub mod components;
pub mod graph;
pub mod snapshot;
pub mod telemetry;

pub use components::Membership;
pub use graph::{EdgeUpdate, StreamingGraph};
pub use snapshot::{Snapshot, SnapshotCell};
