//! # cods-storage
//!
//! The column-oriented storage engine underneath the CODS reproduction
//! (Liu et al., VLDB 2010). Every column is a column-global dictionary plus
//! **one** directory of row-range segments, each independently bitmap,
//! run-length or bit-packed encoded ([`SegmentEnc`]) — the `v × r` bitmap matrix of
//! Section 2.2 of the paper, sharded by row range, with per-*segment*
//! layout choice layered on top. Tables share immutable columns by
//! reference, and columns share immutable segments by reference, which is
//! what makes data-level evolution able to "reuse unchanged columns" (and
//! unchanged row ranges) for free.
//!
//! * [`Value`] / [`ValueType`] — the typed cell values.
//! * [`Schema`] — named, typed columns plus an optional candidate key.
//! * [`EncodedColumn`] / [`ColumnBuilder`] — the unified segmented column:
//!   one dictionary, one directory of [`SegmentEnc`] entries (bitmap | RLE
//!   | packed per segment), per-segment zone maps and encoding pins, one selection
//!   walker under every read of its ids or runs, and every data-level
//!   primitive (filter, gather, concat, slice, compaction) written one
//!   output segment at a time.
//! * [`Segment`] / [`RleSegment`] / [`PackedSegment`] — the three
//!   row-range shard encodings,
//!   payload only; [`SegmentEnc::seal`] writes every segment the engine
//!   builds from the runs of its rows, counting its stats in one pass over
//!   a reusable [`SealScratch`].
//! * [`SegMeta`] — a segment's stats (rows, present ids, per-id ones, runs,
//!   bytes, encoding): their one owner, always resident, and the one check
//!   a payload is held to when it is decoded or verified.
//! * [`Table`] — schema + `Arc`-shared columns.
//! * [`Catalog`] — thread-safe table namespace.
//! * [`SegSlot`] / [`SegmentStore`] — the demand-paged directory entry and
//!   the process-wide, byte-budgeted buffer cache behind it (see
//!   [`segment_cache`]).
//! * [`load`] — delimited-text ingest; [`persist`] — the binary table and
//!   catalog file format (one version: one metadata block per table behind
//!   a catalog index, segment payloads left on disk for lazy opens, and
//!   re-saves that encode only the tables that changed; any other version
//!   is refused).
//!   A file commits itself: a save writes into free space, syncs, and then
//!   overwrites the older of the file's two checksummed commit slots, and
//!   an open reads the newer valid slot without writing anything.
//! * [`wal`] — the checksummed frame format, its checksum and the per-file
//!   save lock; [`commitlog`] — the SMO-granularity commit log that makes every
//!   *evolution commit* crash-safe (group-commit appends, checkpoint +
//!   replay recovery via [`open_durable`]); [`vacuum`] — heap
//!   compaction, run explicitly or by the append-save that crosses the
//!   dead-space threshold, always in the caller's thread; [`fault`] — the
//!   crash-point and I/O-failure injection layer the durability suite
//!   sweeps.
//! * [`StepLog`] — the timed step list every evolution reports (the demo's
//!   "Data Evolution Status" panel); [`span`] — the registry of timed
//!   sites inside the payload layers, off unless switched on.
//!
//! ```
//! use cods_storage::{Schema, Table, Value, ValueType};
//!
//! let schema = Schema::build(
//!     &[("employee", ValueType::Str), ("skill", ValueType::Str)],
//!     &[],
//! ).unwrap();
//! let t = Table::from_rows("S", schema, &[
//!     vec![Value::str("Jones"), Value::str("Typing")],
//!     vec![Value::str("Jones"), Value::str("Shorthand")],
//! ]).unwrap();
//! assert_eq!(t.column_by_name("employee").unwrap().distinct_count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod catalog;
pub mod codec;
pub mod commitlog;
pub mod dictionary;
pub mod encoded;
pub mod error;
pub mod fault;
pub mod load;
pub mod packed;
pub mod persist;
pub mod retry;
pub mod rle_segment;
pub mod schema;
pub mod segment;
pub mod span;
pub mod stats;
pub mod steplog;
pub mod store;
pub mod table;
pub mod vacuum;
pub mod value;
pub mod wal;

pub use catalog::{Catalog, CatalogSnapshot, CommitReceipt};
pub use commitlog::{
    clog_path, log_status, open_durable, CommitLog, CommitLogStats, LogStatus, ReplayReport,
};
pub use dictionary::{Dictionary, ValueOrder};
pub use encoded::{
    choose_encoding_from_stats, ColumnBuilder, EncodedColumn, Encoding, EncodingCounts,
    RecodeScope, RecodeTarget, SegmentEnc,
};
pub use error::StorageError;
pub use load::{load_file, load_str, LoadOptions};
pub use packed::PackedSegment;
pub use retry::{RetryPolicy, Retryable};
pub use rle_segment::RleSegment;
pub use schema::{ColumnDef, Schema};
pub use segment::{
    compaction_plan, needs_compaction, CompactionGroup, SealScratch, Segment, Zone,
    DEFAULT_SEGMENT_ROWS,
};
pub use stats::{render_stats, ColumnStats, TableStats};
pub use steplog::{Step, StepLog};
pub use store::{segment_cache, CacheStats, Present, SegMeta, SegSlot, SegmentStore};
pub use table::Table;
pub use vacuum::{
    heap_stats, set_auto_vacuum, vacuum_catalog, vacuum_file, wait_for_auto_vacuum, AutoVacuum,
    HeapStats, VacuumReport,
};
pub use value::{OrderedF64, Value, ValueType};
pub use wal::JournalWriter;
