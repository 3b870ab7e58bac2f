//! # cods-rowstore
//!
//! Row-oriented baseline storage engine for the CODS reproduction. The
//! paper's Figure 3 compares CODS against a commercial row RDBMS ("C"), the
//! same with indexes ("C+I"), and SQLite ("S"); this crate supplies the
//! substrate those baselines run on:
//!
//! * [`page`] — 8 KiB slotted pages;
//! * [`heap`] — append-only heap files with [`heap::RowId`] addressing;
//! * [`row`] — tuple (de)serialization;
//! * [`index`] — B-tree secondary indexes built or maintained per insert;
//! * [`journal`] — rollback journal copying page before-images
//!   (the SQLite-style durability cost, minus only the fsync);
//! * [`table`] / [`engine`] — tables and the [`engine::RowDb`] database with
//!   the three insert policies that realize the C / C+I / S baselines.
//!
//! Query-level data evolution over this engine lives in `cods-query`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod engine;
pub mod heap;
pub mod index;
pub mod journal;
pub mod page;
pub mod row;
pub mod table;

pub use engine::{InsertPolicy, RowDb};
pub use heap::{HeapFile, RowId};
pub use index::BTreeIndex;
pub use journal::Journal;
pub use page::{Page, PAGE_SIZE};
pub use table::RowTable;
