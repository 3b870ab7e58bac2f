//! # cods-repro
//!
//! Workspace facade for the CODS reproduction (Liu et al., *CODS: Evolving
//! Data Efficiently and Scalably in Column Oriented Databases*, PVLDB 3(2),
//! 2010). Re-exports the member crates so the examples and cross-crate
//! integration tests have one import root:
//!
//! * [`bitmap`] (`cods-bitmap`) — WAH-compressed bitmap kernel;
//! * [`storage`] (`cods-storage`) — the column store;
//! * [`rowstore`] (`cods-rowstore`) — the row-store baselines' engine;
//! * [`query`] (`cods-query`) — query execution + query-level evolution;
//! * [`core`] (`cods`) — the data-level evolution platform itself;
//! * [`workload`] (`cods-workload`) — dataset generators.
//!
//! See `README.md` for the tour and `DESIGN.md` for the system inventory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cods as core;
pub use cods_bitmap as bitmap;
pub use cods_query as query;
pub use cods_rowstore as rowstore;
pub use cods_storage as storage;
pub use cods_workload as workload;
