//! # ncq-bench — experiment harness
//!
//! Regenerates every result of the paper's evaluation:
//!
//! | Experiment | Paper artifact | Module |
//! |---|---|---|
//! | Listing-1 / Listing-2 | the two `<answer>` listings | [`experiments::listings`] |
//! | §3.1 worked examples  | meet examples on Figure 1 | [`experiments::listings`] |
//! | Figure 6 | meet vs. full-text across hit distance | [`experiments::fig6`] |
//! | Figure 7 | DBLP case study: meet time vs. output cardinality | [`experiments::fig7`] |
//! | Ablations | σ-steering, set scaling, §4 restrictions | [`experiments::ablations`] |
//!
//! The `repro` binary drives all of them and writes text tables plus JSON
//! series. Serving-path performance (end to end and per layer) is the
//! stand-alone `perf/` benchmark's job, not this crate's.

pub mod experiments;
pub mod json;
pub mod measure;

pub use experiments::{ablations, fig6, fig7, listings};
