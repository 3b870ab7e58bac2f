//! Background heap compaction (vacuum).
//!
//! Append-saves reclaim only the tail past the last extent they keep: a
//! superseded payload or metadata block below that point just stops being
//! referenced, so a long-lived file accretes dead heap space. A vacuum
//! rewrites the *live* payloads into a fresh heap (via the same
//! temp-file + atomic-rename commit as a full-rewrite save), then rebinds
//! every in-memory slot to its new location — Arc-sharing across table
//! versions is preserved because the slots themselves are shared, and the
//! rebound slots re-adopt through the buffer cache exactly like a first
//! save.
//!
//! Two entry points:
//! * explicit — [`vacuum_table`] / [`vacuum_catalog`] / [`vacuum_file`]
//!   (the CLI's `vacuum <file>`), which compact immediately and report
//!   reclaimed bytes;
//! * automatic — every append-save reports its dead/heap bytes, and
//!   when the configured [`AutoVacuum`] threshold is crossed a background
//!   thread compacts the file off the save path. The thread re-checks the
//!   file's footer under the save lock and skips itself if another save
//!   landed in between (that save re-evaluates the trigger), so a stale
//!   snapshot can never clobber a newer one.
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
//! only `<file>` (and its `.wal`); `<file>.clog` passes through untouched.

use crate::catalog::Catalog;
use crate::error::StorageError;
use crate::persist::{self, Content, OwnedContent};
use crate::table::Table;
use crate::wal;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;

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

/// Heap occupancy of one file: how much of what lies below its index is
/// still referenced by the index. `file_bytes` is the preamble plus
/// `heap_bytes` plus `meta_bytes`, and `heap_bytes` is `live_bytes` plus
/// `dead_bytes`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapStats {
    /// Total file size.
    pub file_bytes: u64,
    /// Bytes below the index that are not live metadata blocks: live
    /// payloads plus dead space.
    pub heap_bytes: u64,
    /// Live metadata blocks + index + footer bytes.
    pub meta_bytes: u64,
    /// Payload bytes the file's live blocks reference.
    pub live_bytes: u64,
    /// Bytes below the index that no live payload or block occupies —
    /// superseded payloads and blocks; what a vacuum reclaims.
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

/// Sets the auto-vacuum policy (`None` disables the background trigger;
/// explicit vacuums are unaffected). Process-wide.
pub fn set_auto_vacuum(policy: Option<AutoVacuum>) {
    *config().lock().unwrap_or_else(|e| e.into_inner()) = policy;
}

/// The current auto-vacuum policy, if enabled.
pub fn auto_vacuum() -> Option<AutoVacuum> {
    *config().lock().unwrap_or_else(|e| e.into_inner())
}

fn inflight() -> &'static Mutex<HashSet<usize>> {
    static INFLIGHT: OnceLock<Mutex<HashSet<usize>>> = OnceLock::new();
    INFLIGHT.get_or_init(|| Mutex::new(HashSet::new()))
}

fn tasks() -> &'static Mutex<Vec<JoinHandle<()>>> {
    static TASKS: OnceLock<Mutex<Vec<JoinHandle<()>>>> = OnceLock::new();
    TASKS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Blocks until every background vacuum spawned so far has finished —
/// deterministic teardown for tests and benchmarks.
pub fn wait_for_auto_vacuum() {
    loop {
        let drained: Vec<JoinHandle<()>> = {
            let mut guard = tasks().lock().unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *guard)
        };
        if drained.is_empty() {
            return;
        }
        for handle in drained {
            let _ = handle.join();
        }
    }
}

/// Evaluated by `save_content` after every append-save: spawn a background
/// compaction when the dead-heap threshold is crossed. `stats` and
/// `index_off` are what the triggering save left behind — the vacuum
/// thread re-reads the footer under the save lock and backs off if
/// another save has landed since (its own trigger re-fires as needed).
pub(crate) fn consider_auto(what: &Content<'_>, path: &Path, stats: &HeapStats, index_off: u64) {
    let Some(policy) = auto_vacuum() else { return };
    if stats.dead_bytes < policy.min_dead_bytes.max(1) {
        return;
    }
    if (stats.dead_bytes as f64) < policy.dead_ratio * (stats.heap_bytes.max(1) as f64) {
        return;
    }
    let expect = (stats.file_bytes, index_off);
    let lock = wal::path_lock(path);
    let key = Arc::as_ptr(&lock) as usize;
    {
        let mut set = inflight().lock().unwrap_or_else(|e| e.into_inner());
        if !set.insert(key) {
            return; // a vacuum of this file is already queued
        }
    }
    let owned = what.to_owned_content();
    let path = path.to_path_buf();
    let handle = std::thread::spawn(move || {
        {
            let _guard = lock.lock().unwrap_or_else(|e| e.into_inner());
            let current = persist::file_footer(&path).ok();
            if current == Some(expect) {
                // Best-effort: a failure leaves the (committed) file as it
                // was, and the next save's trigger tries again.
                let _ = persist::rewrite_compacted(&owned.as_content(), &path);
            }
        }
        inflight()
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&key);
    });
    tasks()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(handle);
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

/// Compacts the file backing `t` at `path`, keeping only the payloads the
/// table still references. `t`'s slots are rebound to the new heap, so
/// subsequent append-saves keep working at full reuse.
pub fn vacuum_table(t: &Table, path: impl AsRef<Path>) -> Result<VacuumReport, StorageError> {
    let path = path.as_ref();
    let lock = wal::path_lock(path);
    let _guard = lock.lock().unwrap_or_else(|e| e.into_inner());
    compact(&Content::Table(t), path)
}

/// Compacts the file backing `cat` at `path` (see [`vacuum_table`]).
pub fn vacuum_catalog(cat: &Catalog, path: impl AsRef<Path>) -> Result<VacuumReport, StorageError> {
    let path = path.as_ref();
    let lock = wal::path_lock(path);
    let _guard = lock.lock().unwrap_or_else(|e| e.into_inner());
    compact(&Content::of_catalog(cat), path)
}

/// Offline vacuum: opens `path` (as a catalog, falling back to a single
/// table), recovers any interrupted save, and compacts in place — the
/// CLI's `vacuum <file>`.
pub fn vacuum_file(path: impl AsRef<Path>) -> Result<VacuumReport, StorageError> {
    let path = path.as_ref();
    let lock = wal::path_lock(path);
    let _guard = lock.lock().unwrap_or_else(|e| e.into_inner());
    wal::recover(path)?;
    let owned = match persist::read_catalog_raw(path) {
        Ok(cat) => Content::of_catalog(&cat).to_owned_content(),
        Err(catalog_err) => match persist::read_table_raw(path) {
            Ok(t) => OwnedContent::Table(t),
            Err(_) => return Err(catalog_err),
        },
    };
    compact(&owned.as_content(), path)
}

/// Measures the heap occupancy of a file: opens its index and blocks
/// (lazily — no payload is read) and sums the distinct extents they
/// reference.
pub fn heap_stats(path: impl AsRef<Path>) -> Result<HeapStats, StorageError> {
    persist::file_heap_stats(path.as_ref())
}
