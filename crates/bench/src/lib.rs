//! # cods-bench
//!
//! The paper's evaluation, five systems side by side. The `fig3` binary
//! regenerates both panels of Figure 3 (decomposition and mergence time
//! vs. number of distinct values, for systems D / C / C+I / S / M) plus
//! per-SMO timings and ablations. Numbers that track this repository from
//! PR to PR come from `benchmark/` at the repository root, not from here;
//! properties are asserted by `cargo test`.
//!
//! Row count defaults to 1M (the paper uses 10M); override with `--rows`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod runner;

pub use runner::{
    decomposed_rows, experiment_spec, median_duration, s_schema, t_schema, time_decompose,
    time_merge,
};
