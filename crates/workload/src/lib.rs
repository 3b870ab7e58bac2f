//! # cods-workload
//!
//! Dataset and workload generators for the CODS reproduction:
//!
//! * [`gen`] — the evaluation table `R(entity, attr, detail)` with a
//!   parameterized distinct-value count (the Figure 3 experiment input);
//! * [`figure1`] — the paper's employee/skill/address running example;
//! * [`warehouse`] — star/snowflake schemas for the workload-adaptation
//!   scenario of the introduction;
//! * [`sweep`] — the Figure 3 sweep definition and system labels;
//! * [`zipf`] — skewed value sampling.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod figure1;
pub mod gen;
pub mod sweep;
pub mod warehouse;
pub mod zipf;

pub use gen::{generate_rows, generate_table, Distribution, GenConfig};
pub use sweep::{SweepSpec, System, PAPER_ROWS, PAPER_SWEEP};
pub use zipf::Zipf;
