//! # graphct-bench — reproduction harness support
//!
//! Shared machinery for the `repro` binary (one subcommand per paper
//! table/figure): dataset construction, timing with repetitions, and
//! fixed-width table rendering.

pub mod datasets;
pub mod format;
pub mod timing;
