//! # cods-query
//!
//! Query execution and **query-level data evolution** for the CODS
//! reproduction. This crate is the "expensive path" of the paper's Figure 2:
//! it materializes columns into tuples, runs relational operators on them,
//! and loads results back — rebuilding indexes (row store) or re-compressing
//! bitmaps (column store) from scratch.
//!
//! * [`tuple`](mod@tuple) — project / distinct / hash join / union over materialized rows;
//! * [`pred`] — the predicate language shared with PARTITION TABLE;
//! * [`query`] — the one read request: [`Query`] (count, scan, group-by,
//!   join) with its `resolve` → `run` / `explain` path, shared by the local
//!   shell, the connect REPL and the server;
//! * [`rowset`] — [`RowSet`], the column-major batch every row-producing
//!   read yields: dictionary ids until the edge, values only on request;
//! * [`text`] — the text grammar of predicates and read statements;
//! * [`agg`] — grouped aggregation: a row kernel plus a vectorized,
//!   dictionary-native columnar kernel (`aggregate_table_masked`);
//! * [`join`] — the partition-wise hash join over dictionary-encoded
//!   columns, with a buffer-budget-aware multi-pass fallback;
//! * [`par`] — the segment fan-out shared with the evolution operators;
//! * [`cost`] — per-operator cost estimates from resident segment
//!   metadata, used to rank kernel strategies and plan alternatives;
//! * [`evolution`] — the four baseline drivers behind Figure 3:
//!   row-level decompose/merge (policies C, C+I, S) and column-level
//!   decompose/merge (M).
//!
//! The data-level alternative that avoids all of this lives in the `cods`
//! crate.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod agg;
pub mod bitmap_scan;
pub mod cost;
pub mod evolution;
pub mod join;
pub mod par;
pub mod pred;
pub mod query;
pub mod rowset;
pub mod stream;
pub mod text;
pub mod tuple;

pub use agg::{aggregate, aggregate_table, aggregate_table_masked, validity, AggOp, GroupKeySpace};
pub use bitmap_scan::{filter_table, predicate_mask};
pub use cost::{CostEstimate, RankedChoice};
pub use evolution::{
    decompose_column_level, decompose_row_level, merge_column_level, merge_row_level,
    EvolutionReport,
};
pub use join::{join_collect, join_stream, plan_join, BuildSide, JoinPlan, JoinStream};
pub use pred::{CmpOp, CompiledPredicate, Predicate};
pub use query::{Query, QueryError, QueryOutput, ResolvedQuery, STREAM_BATCH_ROWS};
pub use rowset::{RowColumn, RowSet};
pub use stream::{RowBatch, ScanStream};
pub use text::{find_unquoted, parse_predicate, parse_query};
