//! # hipacc-bench
//!
//! The harness that regenerates every table and figure of the paper's
//! evaluation section.
//!
//! * [`cells`] — the cell model: a table entry is a modelled time, a
//!   "crash" or an "n/a", mirroring the paper's typography.
//! * [`tables`] — generators for Tables II–IX.
//! * [`figures`] — Figure 3 (region assignment) and Figure 4
//!   (configuration-space exploration), plus the §VI-C lines-of-code
//!   metric.
//! * [`paper`] — the paper's published numbers, for side-by-side
//!   comparison in EXPERIMENTS.md.
//! * [`render`] — plain-text and Markdown rendering.
//! * [`ablation`] — what each design choice is worth (region
//!   specialization, constant masks, the heuristic, vectorization).
//! * [`catalogue`] — the compile catalogue: digests of what every
//!   `cold_sweep` case compiles to, pinned by `tests/compile_catalogue.txt`.
//! * [`report`] — the text `reproduce` prints for the tables and
//!   figures, pinned byte for byte by EXPERIMENTS.md.
//!
//! The `reproduce` binary drives everything:
//! `cargo run -p hipacc-bench --bin reproduce -- --all`. Every number
//! here is modelled device time; host wall time is measured by the
//! standalone `benchmark/` package alone.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ablation;
pub mod catalogue;
pub mod cells;
pub mod figures;
pub mod paper;
pub mod render;
pub mod report;
pub mod tables;
