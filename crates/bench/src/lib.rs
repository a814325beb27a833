//! # widen-bench
//!
//! Experiment harnesses that regenerate every table and figure of the
//! paper's evaluation (§4). One binary per experiment:
//!
//! | Binary | Regenerates |
//! |---|---|
//! | `table1_datasets` | Table 1 — dataset statistics |
//! | `table2_transductive` | Table 2 — transductive micro-F1, 9 methods × 3 datasets × 4 label fractions |
//! | `table3_inductive` | Table 3 — inductive micro-F1 |
//! | `table4_ablation` | Table 4 — ablation variants; exits 1 unless downsampling costs ≤ 1 pp |
//! | `fig3_tsne` | Figure 3 — t-SNE of inductive embeddings (+ silhouette) |
//! | `fig4_efficiency` | Figure 4 — per-epoch time + F1 after 10 epochs; exits 1 unless a pruned last epoch is ≤ 0.8 × a dense one |
//! | `fig5_scalability` | Figure 5 — training time vs data proportion; exits 1 below R² 0.98 |
//! | `fig6_sensitivity` | Figure 6 — hyperparameter sweeps |
//!
//! Every binary accepts `--scale smoke|table` (default `smoke`),
//! `--seeds N` (default scale-dependent) and `--out DIR` (default
//! `results/`); results are printed as formatted tables and dumped as JSON.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod harness;
pub mod runners;

pub use harness::{parse_args, HarnessOpts, RunScale};
pub use runners::{
    run_baseline_inductive, run_baseline_transductive, run_widen_inductive, run_widen_transductive,
    table_baseline_config, table_widen_config,
};
