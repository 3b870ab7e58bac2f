//! # cods
//!
//! A from-scratch reproduction of **CODS** (Liu, Natarajan, He, Hsiao, Chen:
//! *CODS: Evolving Data Efficiently and Scalably in Column Oriented
//! Databases*, PVLDB 3(2), 2010): a platform for **data-level data
//! evolution** on column-oriented databases.
//!
//! Database evolution = schema update + data evolution. Executing the data
//! evolution *at query level* (SQL `INSERT INTO … SELECT`) materializes
//! query results, rebuilds indexes, and — on a column store — decompresses
//! and re-compresses every affected column. CODS instead operates directly
//! on the compressed per-value bitmaps:
//!
//! * [`decompose`](decompose::decompose) — DECOMPOSE TABLE via *distinction*
//!   (one position per distinct key) and *bitmap filtering* (§2.4);
//! * [`merge`](merge::merge) — MERGE TABLES via key–foreign-key mergence
//!   (reuses one input wholesale, §2.5.1) or the general two-pass algorithm
//!   (emits the clustered output as fill runs and strided placements,
//!   §2.5.2);
//! * [`simple_ops`] — the remaining Table 1 operators (CREATE/DROP/RENAME/
//!   COPY TABLE, UNION, PARTITION, ADD/DROP/RENAME COLUMN);
//! * [`Cods`] — the platform: a catalog plus SMO executor
//!   with the demo's status log;
//! * [`plan`] / [`exec`] — the planned evolution surface:
//!   [`Cods::plan`](platform::Cods::plan) validates a whole SMO script
//!   against one catalog snapshot, fuses column-op chains, executes the
//!   dependency DAG in parallel waves, and commits atomically;
//! * [`schema_tools`] — lossless-join and functional-dependency analysis;
//! * [`verify`] — cross-engine result verification.
//!
//! The query-level baselines live in `cods-query`; the storage engines in
//! `cods-storage` (column) and `cods-rowstore` (row); the compressed-bitmap
//! kernel in `cods-bitmap`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod decompose;
pub mod error;
pub mod exec;
pub mod merge;
pub mod parser;
pub mod plan;
pub mod planner;
pub mod platform;
pub mod schema_tools;
pub mod simple_ops;
pub mod smo;
pub mod status;
pub mod verify;

pub use decompose::{decompose, DecomposeOutcome, DecomposeSpec};
pub use error::{EvolutionError, Result};
pub use exec::PlanReport;
pub use merge::{merge, merge_general, merge_key_fk, MergeOutcome, MergeStrategy, UsedStrategy};
pub use parser::{parse_script, parse_smo};
pub use plan::{EvolutionPlan, PlanNode, PlanOp};
pub use planner::{plan_decomposition, TargetSpec};
pub use platform::{Cods, ExecutionRecord};
pub use simple_ops::ColumnFill;
pub use smo::Smo;
pub use status::{EvolutionStatus, PlanLog, PlanStageLog, StatusTracker, Step};
