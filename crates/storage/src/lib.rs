//! # cods-storage
//!
//! The column-oriented storage engine underneath the CODS reproduction
//! (Liu et al., VLDB 2010). Every column is a column-global dictionary plus
//! **one** directory of row-range segments, each independently bitmap or
//! run-length encoded ([`SegmentEnc`]) — the `v × r` bitmap matrix of
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
//!   per segment), per-segment zone maps and encoding pins, and every
//!   data-level primitive (filter, gather, concat, slice, compaction)
//!   dispatched per segment on its encoding.
//! * [`Segment`] / [`RleSegment`] — the two row-range shard encodings;
//!   [`EncodedAssembler`] splices per-segment operator outputs back into a
//!   directory, sealing each output segment in its pieces' encoding.
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
//! * [`wal`] — the rollback journal that makes every save crash-safe
//!   (journal-then-overwrite appends, temp+rename rewrites, recovery on
//!   open); [`commitlog`] — the SMO-granularity commit log that makes every
//!   *evolution commit* crash-safe (group-commit appends, checkpoint +
//!   replay recovery via [`open_durable`]); [`vacuum`] — explicit and
//!   threshold-triggered background heap compaction; [`fault`] — the
//!   crash-point injection layer the durability suite sweeps.
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

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod catalog;
pub mod commitlog;
pub mod dictionary;
pub mod encoded;
pub mod error;
pub mod fault;
pub mod load;
pub mod persist;
pub mod retry;
pub mod rle_segment;
pub mod schema;
pub mod segment;
pub mod stats;
pub mod store;
pub mod table;
pub mod vacuum;
pub mod value;
pub mod wal;

pub use catalog::{Catalog, CatalogSnapshot, CommitReceipt, DurabilitySink};
pub use commitlog::{
    clog_path, log_status, open_durable, CommitLog, CommitLogStats, LogStatus, ReplayReport,
};
pub use dictionary::{Dictionary, ValueOrder};
pub use encoded::{
    choose_encoding_from_stats, ColumnBuilder, EncodedAssembler, EncodedChunk, EncodedColumn,
    Encoding, SegmentEnc,
};
pub use error::StorageError;
pub use load::{load_file, load_str, LoadOptions};
pub use retry::{RetryPolicy, Retryable};
pub use rle_segment::RleSegment;
pub use schema::{ColumnDef, Schema};
pub use segment::{
    compaction_plan, needs_compaction, CompactionGroup, Segment, SegmentChunk, Zone,
    DEFAULT_SEGMENT_ROWS,
};
pub use stats::{ColumnStats, TableStats};
pub use store::{segment_cache, CacheStats, SegSlot, SegmentStore};
pub use table::Table;
pub use vacuum::{
    heap_stats, set_auto_vacuum, vacuum_catalog, vacuum_file, vacuum_table, wait_for_auto_vacuum,
    AutoVacuum, HeapStats, VacuumReport,
};
pub use value::{OrderedF64, Value, ValueType};
pub use wal::{journal_status, JournalStatus, JournalWriter, Recovery};
