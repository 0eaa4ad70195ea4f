//! Experiment harness regenerating the evaluation section of Combaz et
//! al. (DATE 2005).
//!
//! Each figure/table of the paper has a binary in `src/bin/`:
//!
//! | target | paper artifact |
//! |---|---|
//! | `fig5_tables`   | Fig. 5 execution-time tables (+ measured calibration) |
//! | `fig6_budget`   | Fig. 6 time-budget utilization, controlled vs constant q=3 (K=1) |
//! | `fig7_budget_k2`| Fig. 7 time-budget utilization, controlled vs constant q=4 (K=2) |
//! | `fig8_psnr`     | Fig. 8 PSNR, controlled vs constant q=3 (K=1) |
//! | `fig9_psnr_k2`  | Fig. 9 PSNR, controlled vs constant q=4 (K=2) |
//! | `overheads`     | Section 3 instrumentation overhead report |
//! | `ablations`     | policy/estimator/deadline-shape ablations (Section 4 directions) |
//!
//! Binaries run the full paper scale by default (582 frames, 1584
//! macroblocks per frame) and accept `--frames N`, `--mb N`, `--seed S`,
//! `--out DIR` (CSV output, default `target/figures`), and `--pixels`
//! (use the pixel-level encoder at CIF scale instead of the table-driven
//! application).
//!
//! The comparison baselines the production crates no longer carry live
//! here too: [`kernel_refs`] (the encoder kernels in their original
//! form) and [`table_refs`] (per-budget constraint-table rebuilds).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod kernel_refs;
pub mod table_refs;

pub use experiments::ExpConfig;
