//! Heap compaction (vacuum).
//!
//! Append-saves write into the free space the committed state and the live
//! slots leave, and cut the file after the last extent still kept; free
//! space below that point that no later save fits into, and payloads live
//! slots of older snapshots keep, stay in the file as dead heap. A vacuum
//! rewrites the *live* payloads into a fresh heap (via the same
//! temp-file + atomic-rename commit as a full-rewrite save), then rebinds
//! every in-memory slot to its new location — Arc-sharing across table
//! versions is preserved because the slots themselves are shared, and the
//! rebound slots re-adopt through the buffer cache exactly like a first
//! save.
//!
//! There is one compaction, run in the caller's thread under the file's
//! save lock. It is reached two ways:
//! * explicit — [`vacuum_catalog`] / [`vacuum_file`] (the CLI's
//!   `vacuum <file>`), which report reclaimed bytes;
//! * automatic — every append-save reports its dead/heap bytes, and when
//!   the configured [`AutoVacuum`] threshold is crossed (`due`) the same
//!   save compacts the file before it releases the lock. The append has
//!   committed by then, so a failed compaction leaves the committed file
//!   as it was, and the save still succeeds.
//!
//! Readers concurrent with a vacuum are safe on unix: they hold an open
//! handle to the old inode, which the rename unlinks but does not destroy.
//! Their slots' stale offsets are harmless too — the file-identity check
//! in the append path refuses to reuse extents of a replaced inode.
//!
//! The commit log ([`crate::commitlog`]) is likewise immune to vacuums by
//! construction: a record names a reused column by *table and column
//! index* and carries every other column as a self-contained image in the
//! record — never an offset into the catalog heap — so a vacuum that
//! rewrites and rebinds the whole heap can neither strand nor reorder a
//! pending, un-checkpointed record. A vacuum writes the
//! catalog version of the content it writes, like any save, so replay
//! still knows which records the compacted file covers. The vacuum touches
//! only `<file>` (through a temp file renamed over it); `<file>.clog`
//! passes through untouched.

use crate::catalog::Catalog;
use crate::error::StorageError;
use crate::persist::{self, Content};
use crate::wal;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

/// What a vacuum did to one file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VacuumReport {
    /// The compacted file.
    pub path: PathBuf,
    /// File size before compaction.
    pub before_bytes: u64,
    /// File size after compaction.
    pub after_bytes: u64,
    /// Live payload bytes in the new heap.
    pub live_payload_bytes: u64,
    /// Distinct live segments placed.
    pub segments: usize,
}

impl VacuumReport {
    /// Bytes the compaction reclaimed (0 when the file grew — possible
    /// only when it was already compact and metadata dominates).
    pub fn reclaimed_bytes(&self) -> u64 {
        self.before_bytes.saturating_sub(self.after_bytes)
    }
}

/// Heap occupancy of one file: how much of its heap the committed index
/// still references. `file_bytes` is the preamble plus `heap_bytes` plus
/// `meta_bytes`, and `heap_bytes` is `live_bytes` plus `dead_bytes`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapStats {
    /// Total file size.
    pub file_bytes: u64,
    /// Heap bytes that are not the index or a live metadata block: live
    /// payloads plus dead space.
    pub heap_bytes: u64,
    /// The two commit slots, the live metadata blocks and the index.
    pub meta_bytes: u64,
    /// Payload bytes the file's live blocks reference.
    pub live_bytes: u64,
    /// Heap bytes that no live payload, block or the index occupies —
    /// superseded payloads, blocks and indexes; what a vacuum reclaims.
    pub dead_bytes: u64,
    /// Distinct live payload extents.
    pub live_segments: usize,
}

/// The auto-vacuum trigger policy, evaluated after every append-save.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoVacuum {
    /// Compact when `dead / heap` exceeds this ratio…
    pub dead_ratio: f64,
    /// …and at least this many bytes are dead (keeps small files, where a
    /// rewrite is cheap anyway and ratios are noisy, off the treadmill).
    pub min_dead_bytes: u64,
}

impl Default for AutoVacuum {
    fn default() -> AutoVacuum {
        AutoVacuum {
            dead_ratio: 0.5,
            min_dead_bytes: 256 * 1024,
        }
    }
}

fn config() -> &'static Mutex<Option<AutoVacuum>> {
    static CONFIG: OnceLock<Mutex<Option<AutoVacuum>>> = OnceLock::new();
    CONFIG.get_or_init(|| Mutex::new(Some(AutoVacuum::default())))
}

/// Sets the auto-vacuum policy (`None` disables the trigger; explicit
/// vacuums are unaffected). Process-wide: it applies to the next
/// append-save in any thread.
pub fn set_auto_vacuum(policy: Option<AutoVacuum>) {
    *config().lock().unwrap_or_else(|e| e.into_inner()) = policy;
}

/// The current auto-vacuum policy, if enabled.
pub fn auto_vacuum() -> Option<AutoVacuum> {
    *config().lock().unwrap_or_else(|e| e.into_inner())
}

/// Returns at once: the auto-vacuum runs inside the save that crosses its
/// threshold, so none is ever pending. Kept for the callers that drain it
/// before reading a file's size (the benchmark harness, `tests/vacuum.rs`).
pub fn wait_for_auto_vacuum() {}

/// Whether the current [`AutoVacuum`] policy asks for a compaction of a
/// file whose append-save left `stats`.
pub(crate) fn due(stats: &HeapStats) -> bool {
    auto_vacuum().is_some_and(|policy| {
        stats.dead_bytes >= policy.min_dead_bytes.max(1)
            && stats.dead_bytes as f64 >= policy.dead_ratio * stats.heap_bytes.max(1) as f64
    })
}

fn compact(what: &Content<'_>, path: &Path) -> Result<VacuumReport, StorageError> {
    let (before_bytes, after_bytes, live_payload_bytes, segments) =
        persist::rewrite_compacted(what, path)?;
    Ok(VacuumReport {
        path: path.to_path_buf(),
        before_bytes,
        after_bytes,
        live_payload_bytes,
        segments,
    })
}

/// Compacts the file backing `cat` at `path`, keeping only the payloads
/// the catalog still references. `cat`'s slots are rebound to the new
/// heap, so subsequent append-saves keep working at full reuse.
pub fn vacuum_catalog(cat: &Catalog, path: impl AsRef<Path>) -> Result<VacuumReport, StorageError> {
    let path = path.as_ref();
    let lock = wal::path_lock(path);
    let _guard = lock.lock().unwrap_or_else(|e| e.into_inner());
    compact(&Content::of_catalog(cat), path)
}

/// Offline vacuum: opens `path` (as a catalog, falling back to a single
/// table) and compacts in place — the CLI's `vacuum <file>`.
pub fn vacuum_file(path: impl AsRef<Path>) -> Result<VacuumReport, StorageError> {
    let path = path.as_ref();
    let lock = wal::path_lock(path);
    let _guard = lock.lock().unwrap_or_else(|e| e.into_inner());
    match persist::read_catalog_raw(path) {
        Ok(cat) => compact(&Content::of_catalog(&cat), path),
        Err(catalog_err) => match persist::read_table_raw(path) {
            Ok(t) => compact(&Content::Table(&t), path),
            Err(_) => Err(catalog_err),
        },
    }
}

/// Measures the heap occupancy of a file: opens its index and blocks
/// (lazily — no payload is read) and sums the distinct extents they
/// reference.
pub fn heap_stats(path: impl AsRef<Path>) -> Result<HeapStats, StorageError> {
    persist::file_heap_stats(path.as_ref())
}
