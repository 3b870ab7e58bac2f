//! The catalog commit log: SMO-commit-granularity durability.
//!
//! A table file's two commit slots ([`crate::persist`]) make *saves*
//! crash-safe; this module makes *commits* crash-safe. Every successful
//! [`Catalog::commit_evolution`] appends one checksummed commit record to a
//! sidecar log (`<file>.clog`) describing the catalog diff — the tables the
//! commit dropped and the tables it put — and the commit is acknowledged
//! only once the record is on disk. On the next open, [`open_durable`]
//! loads the checkpoint (the catalog file itself) and replays every sealed
//! record past it, so an acknowledged commit survives any crash.
//!
//! ## Record format
//!
//! The log uses the frame format of [`crate::wal`] (`tag len payload fnv`)
//! behind its own magic:
//!
//! ```text
//! log     := magic:u32 version:u16 frame*
//! frame   := COMMIT_TAG:u32 len:u64 record fnv:u64
//! record  := version:u64 drops:u32 str* puts:u32 put*
//! put     := str(name) schema rows:u64 ncols:u16 src* body
//! src     := 0 str(table) col:u16                     (reused column)
//!          | 1                                        (next image column)
//! body    := 2                                        (no image)
//!          | 0 img_len:u64 image
//! str     := len:u32 utf-8                            ([`crate::codec`])
//! schema  := as in a table file                       ([`crate::codec`])
//! ```
//!
//! A record is read with the one checked reader ([`crate::codec::Reader`]);
//! a record that does not decode is [`StorageError::Corrupt`].
//!
//! A put costs what it changed. Evolution hands out its input's columns by
//! reference (a `DECOMPOSE`'s unchanged side *is* columns of its input), and
//! the record says so: `src 0` is "column `col` of `table` in the state this
//! record applies to", `src 1` is "the next column of my image", and the
//! image is a self-contained table image ([`crate::persist::encode_table`])
//! of the carried columns only — absent (`body 2`) when every column is
//! reused. A put that reuses nothing is the all-`1` case of the same
//! grammar. Payloads travel in the image's own heap and a reference is a
//! table name and a column index, so records never hold offsets into the
//! catalog file — a checkpoint or a vacuum can rewrite and rebind the
//! catalog heap freely without stranding a pending record. An image,
//! whatever its size, rides inside its record's frame: the frame's checksum
//! and the group fsync cover it, and the log is the only file a commit
//! writes.
//!
//! ## The durable view
//!
//! Which columns a put reuses is decided when the record is staged
//! ([`CommitLog::stage`], under the catalog write lock), by pointer
//! identity against the log's **durable view**: the name → table map that
//! `catalog file + log so far` reconstructs. The view starts as what
//! [`open_durable`] rebuilt and has every staged record applied to it — it
//! is never the live catalog. A table that reached the catalog past the log
//! (`Catalog::create` / `put` stay unlogged) is not in the view, so its
//! columns are carried the first time a logged commit uses them; a
//! reference is only ever written to something replay will have, which is
//! why it is always resolvable.
//!
//! References resolve against the state before the record, overlaid put by
//! put with the record's own earlier puts; the record's drops apply last. A
//! `DECOMPOSE` therefore references the table it drops, and a column new to
//! the record that two of its puts share is carried by the first and
//! referenced by the second. Staging and replay run the same two steps
//! (each put into the state as it is settled, `remove_dropped` after the
//! last), so they agree by construction.
//! Replay checks every resolved column's type and row count against the
//! put's schema and turns any miss into [`StorageError::Corrupt`] — a sealed
//! record is never skipped over and never panics.
//!
//! ## Group commit
//!
//! Concurrent committers stage records under the catalog write lock (which
//! sequences them in commit order) and then park in [`CommitLog::wait`].
//! The first waiter becomes the leader: it drains the whole queue, writes
//! every staged record straight into one buffer (each record is encoded
//! once, inside its frame — `wal::encode_frame`), and issues **one**
//! fsync for the batch — N commits, one `fsync(2)`. Followers wake when the
//! leader advances the durable ticket.
//!
//! ## A record's state machine
//!
//! ```text
//! append → seal (checksummed frame + group fsync) → ack
//!        → checkpoint (a save of the catalog = the new recovery base)
//!        → truncate (drop records the checkpoint covers)
//! ```
//!
//! Replay walks sealed records in log order; the first torn or
//! mis-checksummed frame ends the valid prefix and everything past it is
//! discarded and physically truncated — **acknowledged-prefix semantics**:
//! every acknowledged commit is in the valid prefix (its fsync covered it),
//! and no torn record can ever apply (its checksum cannot seal).
//!
//! A record's `version` is the catalog version its commit produced, and a
//! catalog file carries the version of the content it holds
//! ([`crate::persist`]). **Replay applies a record only if its version is
//! greater than the catalog's so far, and then sets the catalog's version
//! to it.** That is what makes the three crash windows of a checkpoint
//! safe now that a record may refer to state instead of restating it:
//!
//! * before the save's commit point — the file is the old base, every
//!   record is past it, all replay;
//! * save committed, log not yet truncated — the records are present *and*
//!   covered; their versions are at most the file's, so they are skipped
//!   (re-applying one could resolve its references against tables a later
//!   record replaced);
//! * log truncated — only records past the snapshot remain.
//!
//! A record staged while a checkpoint is between its snapshot and the end
//! of its save cannot know which of the two bases it will be replayed on,
//! and the saved tables may differ from the view (they include unlogged
//! tables). It carries all its columns. Once the save has committed the
//! view becomes the saved tables plus those records; if the save fails the
//! view is untouched (a save is taken at its word: one that reports failure
//! is treated as not having replaced the base).
//!
//! The target file of a live log is written through
//! [`CommitLog::checkpoint`]. Another writer of the same catalog's content
//! (a `vacuum_catalog`, a plain `save_catalog`) stamps the version it
//! wrote, so replay stays exact; it does not refresh the view, which then
//! matches the file only as far as the catalog took no unlogged change.

use crate::catalog::Catalog;
use crate::codec::{put_schema, put_str, read_schema, read_str, BufMut, Reader};
use crate::encoded::EncodedColumn;
use crate::error::StorageError;
use crate::fault;
use crate::persist::{self, Content};
use crate::schema::Schema;
use crate::table::Table;
use crate::wal;
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar};
use std::time::Instant;

/// Commit-log file magic ("CODS CLOG").
const CLOG_MAGIC: u32 = 0xC0D5_C106;
/// Commit-log format version (3: an image always rides in its record).
const CLOG_VERSION: u16 = 3;
/// Frame tag of a commit record.
const COMMIT_TAG: u32 = 2;
/// Bytes of the log file header (magic + version).
const CLOG_HEADER_BYTES: u64 = 6;
/// Capacity the batch buffer keeps between batches: one that outgrew it is
/// cut back, so a single large commit does not pin its size.
const BATCH_BUF_KEEP: usize = 1 << 20;

/// `src` tags of a put's column list.
const SRC_REUSED: u8 = 0;
const SRC_CARRIED: u8 = 1;
/// `body` tags of a put.
const BODY_IMAGE: u8 = 0;
const BODY_NONE: u8 = 2;

/// The name → table state a record applies to: the log's durable view
/// while staging, the catalog rebuilt so far during replay.
type View = BTreeMap<String, Arc<Table>>;

/// The sidecar commit-log path for a catalog file: `<file>.clog`.
pub fn clog_path(target: &Path) -> PathBuf {
    let mut name = target.file_name().unwrap_or_default().to_os_string();
    name.push(".clog");
    target.with_file_name(name)
}

/// `<file>.clog.d`, where builds up to log format 2 kept oversized images.
/// No build from this one on creates that directory — a durable catalog is
/// `<file>` and `<file>.clog` — and nothing here calls this; it is kept for
/// the benchmark harness, which still imports it.
pub fn spill_dir(target: &Path) -> PathBuf {
    let mut name = target.file_name().unwrap_or_default().to_os_string();
    name.push(".clog.d");
    target.with_file_name(name)
}

/// Counters of a live [`CommitLog`], all monotonic except the gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommitLogStats {
    /// Commit records made durable (acknowledged commits).
    pub commits: u64,
    /// Group fsyncs issued — `commits / fsyncs` is the batching factor.
    pub fsyncs: u64,
    /// Largest number of commits covered by one fsync.
    pub max_batch: u64,
    /// Cumulative wall time spent inside the group fsyncs, microseconds.
    pub fsync_micros: u64,
    /// Put columns written as a reference to a column of the durable view.
    pub columns_referenced: u64,
    /// Put columns written out in an image — the ones that were not
    /// pointer-identical to any column of the durable view.
    pub columns_carried: u64,
    /// Bytes the commits wrote (their record frames).
    pub bytes_appended: u64,
    /// Records currently in the log, i.e. not yet checkpointed (gauge).
    pub pending_records: u64,
    /// Bytes of the log file (gauge).
    pub log_bytes: u64,
}

/// What [`open_durable`] found and did during recovery.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Sealed commit records replayed onto the checkpoint. Records the
    /// checkpoint already covers (a crash cut its truncation) are not
    /// replayed and not counted.
    pub replayed: u64,
    /// `true` when a torn tail (a record whose append was cut by the
    /// crash) was discarded and truncated away.
    pub discarded_torn: bool,
}

/// One put of a pending record, as [`log_status`] lists it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PutSummary {
    /// The table the put writes.
    pub table: String,
    /// Columns the put reuses from the state it applies to.
    pub referenced: usize,
    /// Columns the put carries in its image.
    pub carried: usize,
    /// Bytes of that image; 0 without one.
    pub carried_bytes: u64,
}

/// One pending record, as [`log_status`] lists it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordSummary {
    /// The catalog version the commit produced.
    pub version: u64,
    /// Tables the commit dropped.
    pub drops: Vec<String>,
    /// Tables the commit put.
    pub puts: Vec<PutSummary>,
}

/// Read-only inspection of a catalog file's commit log — the data behind
/// the CLI's `wal` status command. Produced by [`log_status`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LogStatus {
    /// `true` when `<file>.clog` exists.
    pub exists: bool,
    /// Sealed commit records in the valid prefix.
    pub records: u64,
    /// Bytes of the valid prefix (header included).
    pub valid_bytes: u64,
    /// Bytes past the valid prefix — non-zero means a torn tail that the
    /// next open will discard.
    pub torn_bytes: u64,
    /// What each sealed record holds, in log order.
    pub pending: Vec<RecordSummary>,
}

/// Where one column of a staged put comes from: `Some((table, col))` names
/// a column of the durable view, `None` is carried in the put's image.
type Src = Option<(String, u16)>;

/// One put of a staged record, with the reuse decisions made at staging.
#[derive(Debug)]
struct StagedPut {
    table: Arc<Table>,
    srcs: Vec<Src>,
}

/// One record staged by a committer, waiting for the group fsync.
#[derive(Debug)]
struct Pending {
    ticket: u64,
    version: u64,
    drops: Vec<String>,
    puts: Vec<StagedPut>,
}

/// A commit staged while a checkpoint was in flight, kept to rebuild the
/// view on top of the saved tables.
#[derive(Debug)]
struct Raced {
    version: u64,
    drops: Vec<String>,
    puts: Vec<Arc<Table>>,
}

/// Scheduler state: the staging queue, the group-commit protocol and the
/// durable view the queue is staged against.
#[derive(Debug, Default)]
struct Sched {
    queue: Vec<Pending>,
    next_ticket: u64,
    /// Highest ticket whose record is durable.
    durable: u64,
    /// A leader is writing a batch right now.
    writing: bool,
    /// Set on the first append/checkpoint failure: the modeled process can
    /// no longer guarantee durability, so every later stage/wait fails.
    poisoned: Option<String>,
    /// What `catalog file + every record staged so far` reconstructs.
    view: View,
    /// Version of the last record staged (of the recovered catalog, before
    /// the first): a record's version must pass it, or replay would take
    /// the record for one its base already covers.
    last_version: u64,
    /// `Some` while a checkpoint is between its snapshot and the end of
    /// its save: the commits staged meanwhile, which carry every column.
    raced: Option<Vec<Raced>>,
}

/// Index entry for one durable record in the log file.
#[derive(Debug)]
struct Entry {
    /// Catalog version the commit produced — compared against the
    /// checkpoint's snapshot version to decide truncation.
    version: u64,
    /// Where its frame starts.
    offset: u64,
}

/// File-side state, guarded separately from the scheduler so a leader
/// writes without blocking stagers.
#[derive(Debug)]
struct LogIo {
    file: File,
    len: u64,
    entries: Vec<Entry>,
}

#[derive(Debug)]
struct Inner {
    target: PathBuf,
    log_path: PathBuf,
    sched: Mutex<Sched>,
    done: Condvar,
    io: Mutex<LogIo>,
    /// Held for the length of a checkpoint: one snapshot-save-truncate at
    /// a time.
    checkpointing: Mutex<()>,
    /// The leader's batch buffer, kept (cleared) between batches.
    batch_buf: Mutex<Vec<u8>>,
    commits: AtomicU64,
    fsyncs: AtomicU64,
    max_batch: AtomicU64,
    fsync_micros: AtomicU64,
    columns_referenced: AtomicU64,
    columns_carried: AtomicU64,
    bytes_appended: AtomicU64,
}

/// A live commit log attached to one catalog file. Cheap to clone (shared
/// handle); [`Catalog::set_durability`] attaches it to a catalog, whose
/// commits then [`stage`](CommitLog::stage) and [`wait`](CommitLog::wait)
/// — [`open_durable`] does that wiring.
#[derive(Debug, Clone)]
pub struct CommitLog {
    inner: Arc<Inner>,
}

/// Opens `target` durably: loads the checkpoint (the state the file's
/// committed slot names), replays the commit log's sealed records past it (discarding
/// and truncating a torn tail), and attaches the log to the catalog.
/// Returns the recovered catalog, the live log, and
/// what replay found.
pub fn open_durable(target: &Path) -> Result<(Catalog, CommitLog, ReplayReport), StorageError> {
    let lock = wal::path_lock(target);
    let _guard = lock.lock().unwrap_or_else(|e| e.into_inner());

    // Checkpoint: the catalog file itself. It says which commit it covers;
    // records up to that version are skipped.
    let (mut version, mut view) = if target.exists() {
        persist::read_catalog_raw(target)?.begin_evolution()
    } else {
        (0, View::new())
    };

    let log_path = clog_path(target);
    let read = read_log(&log_path)?.unwrap_or_default();
    let mut report = ReplayReport {
        replayed: 0,
        discarded_torn: read.torn_bytes > 0,
    };
    let mut entries = Vec::with_capacity(read.records.len());
    for (record, offset) in read.records {
        entries.push(Entry {
            version: record.version,
            offset,
        });
        if record.version <= version {
            // The checkpoint covers it (a crash cut the truncation that
            // follows a save): the next checkpoint drops it.
            continue;
        }
        let mut puts = Vec::with_capacity(record.puts.len());
        for put in record.puts {
            let t = Arc::new(resolve_put(put, &view)?);
            view.insert(t.name().to_string(), Arc::clone(&t));
            puts.push(t);
        }
        remove_dropped(&mut view, &record.drops, &puts);
        version = record.version;
        report.replayed += 1;
    }
    let len = if read.valid_len < CLOG_HEADER_BYTES {
        // No log yet, or its initial header write was torn: an empty log,
        // whose name must be as durable as the commits it will hold.
        let mut f = fault::create(&log_path)?;
        fault::write_all(&mut f, &clog_header())?;
        fault::sync(&f)?;
        fault::sync_dir(&log_path)?;
        CLOG_HEADER_BYTES
    } else {
        if report.discarded_torn {
            let f = fault::open_rw(&log_path)?;
            fault::set_len(&f, read.valid_len)?;
            fault::sync(&f)?;
        }
        read.valid_len
    };

    let catalog = Catalog::from_parts(version, view.clone());
    let file = fault::open_rw(&log_path)?;
    let log = CommitLog {
        inner: Arc::new(Inner {
            target: target.to_path_buf(),
            log_path,
            sched: Mutex::new(Sched {
                view,
                last_version: version,
                ..Sched::default()
            }),
            done: Condvar::new(),
            io: Mutex::new(LogIo { file, len, entries }),
            checkpointing: Mutex::new(()),
            batch_buf: Mutex::new(Vec::new()),
            commits: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            max_batch: AtomicU64::new(0),
            fsync_micros: AtomicU64::new(0),
            columns_referenced: AtomicU64::new(0),
            columns_carried: AtomicU64::new(0),
            bytes_appended: AtomicU64::new(0),
        }),
    };
    catalog.set_durability(Some(log.clone()));
    Ok((catalog, log, report))
}

/// The log file header: magic + version.
fn clog_header() -> [u8; CLOG_HEADER_BYTES as usize] {
    let mut header = [0u8; CLOG_HEADER_BYTES as usize];
    header[..4].copy_from_slice(&CLOG_MAGIC.to_le_bytes());
    header[4..6].copy_from_slice(&CLOG_VERSION.to_le_bytes());
    header
}

/// A log file as [`read_log`] found it.
#[derive(Default)]
struct LogRead {
    /// The sealed records of the valid prefix, in log order, each with the
    /// offset of its frame.
    records: Vec<(Record, u64)>,
    /// Bytes of the valid prefix, header included — 0 when the file is too
    /// short to hold a header (the header write itself was torn).
    valid_len: u64,
    /// Bytes past the valid prefix: a torn tail.
    torn_bytes: u64,
}

/// The one reader of a log file, behind [`open_durable`] and
/// [`log_status`]: `None` when there is no file; otherwise the header's
/// verdict, the valid frame prefix and every record in it decoded. Images
/// are slices of the one buffer the file was read into. Mutates nothing.
///
/// # Errors
/// [`StorageError::Corrupt`] for a file that is not a commit log, a log of
/// another format version (named), and a sealed record that is not a commit
/// record, does not decode, or does not pass the version before it.
fn read_log(log_path: &Path) -> Result<Option<LogRead>, StorageError> {
    let bytes = match std::fs::read(log_path) {
        Ok(bytes) => Bytes::from(bytes),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let header = CLOG_HEADER_BYTES as usize;
    if bytes.len() < header {
        return Ok(Some(LogRead {
            torn_bytes: bytes.len() as u64,
            ..LogRead::default()
        }));
    }
    if bytes[..4] != CLOG_MAGIC.to_le_bytes() {
        return Err(corrupt(format!(
            "{} is not a commit log (bad magic)",
            log_path.display()
        )));
    }
    let format = u16::from_le_bytes([bytes[4], bytes[5]]);
    if format != CLOG_VERSION {
        return Err(corrupt(format!(
            "unsupported commit log version {format} in {}",
            log_path.display()
        )));
    }
    let (frames, used) = wal::scan_frame_prefix(&bytes[header..]);
    let mut records = Vec::with_capacity(frames.len());
    let mut offset = header;
    let mut prev_version = 0;
    for (tag, payload) in frames {
        if tag != COMMIT_TAG {
            return Err(corrupt(format!(
                "unexpected frame tag {tag} in {}",
                log_path.display()
            )));
        }
        let at = offset + 12; // past the frame's tag and length
        let record = decode_record(&bytes.slice(at..at + payload.len()))?;
        if record.version <= prev_version {
            return Err(corrupt(format!(
                "commit record {} follows record {prev_version} in {}",
                record.version,
                log_path.display()
            )));
        }
        prev_version = record.version;
        records.push((record, offset as u64));
        offset += wal::FRAME_OVERHEAD_BYTES as usize + payload.len();
    }
    let valid_len = header + used;
    Ok(Some(LogRead {
        records,
        valid_len: valid_len as u64,
        torn_bytes: (bytes.len() - valid_len) as u64,
    }))
}

/// Inspects the commit log of `target` without opening or mutating it.
///
/// # Errors
/// As `read_log`: whatever [`open_durable`] would refuse the log for.
pub fn log_status(target: &Path) -> Result<LogStatus, StorageError> {
    let Some(read) = read_log(&clog_path(target))? else {
        return Ok(LogStatus::default());
    };
    Ok(LogStatus {
        exists: true,
        records: read.records.len() as u64,
        valid_bytes: read.valid_len,
        torn_bytes: read.torn_bytes,
        pending: read
            .records
            .into_iter()
            .map(|(record, ..)| RecordSummary {
                version: record.version,
                puts: record.puts.iter().map(PutRecord::summary).collect(),
                drops: record.drops,
            })
            .collect(),
    })
}

/// The last step of applying a record to `state`, shared by staging and
/// replay: the record's puts are already in (each inserted as soon as it
/// was resolved, so later puts could refer to it), and its drops go now —
/// after every reference to a dropped table has been resolved. A name both
/// dropped and put stays put, as in [`Catalog::commit_evolution`].
fn remove_dropped(state: &mut View, drops: &[String], puts: &[Arc<Table>]) {
    for d in drops {
        if !puts.iter().any(|t| t.name() == d) {
            state.remove(d);
        }
    }
}

/// Finds `col` in `state` by pointer identity.
fn find_column(state: &View, col: &Arc<EncodedColumn>) -> Src {
    state.values().find_map(|t| {
        let at = t.columns().iter().position(|c| Arc::ptr_eq(c, col))?;
        Some((t.name().to_string(), u16::try_from(at).ok()?))
    })
}

impl CommitLog {
    /// The catalog file this log protects.
    pub fn target(&self) -> &Path {
        &self.inner.target
    }

    /// Snapshot of the log's counters.
    pub fn stats(&self) -> CommitLogStats {
        let inner = &self.inner;
        let (pending_records, log_bytes) = {
            let io = inner.io.lock();
            (io.entries.len() as u64, io.len)
        };
        CommitLogStats {
            commits: inner.commits.load(Ordering::Relaxed),
            fsyncs: inner.fsyncs.load(Ordering::Relaxed),
            max_batch: inner.max_batch.load(Ordering::Relaxed),
            fsync_micros: inner.fsync_micros.load(Ordering::Relaxed),
            columns_referenced: inner.columns_referenced.load(Ordering::Relaxed),
            columns_carried: inner.columns_carried.load(Ordering::Relaxed),
            bytes_appended: inner.bytes_appended.load(Ordering::Relaxed),
            pending_records,
            log_bytes,
        }
    }

    /// Checkpoints the catalog: a durable save of `catalog` to the target
    /// file — which encodes only the tables replaced since the file's last
    /// save ([`persist::save_catalog`]) — then truncation of every log
    /// record the save covers. Returns the number of records truncated.
    ///
    /// The save writes one `(version, tables)` snapshot, so the file says
    /// exactly which records it covers: a commit racing the checkpoint is
    /// either in the snapshot (and truncated with it) or past it (and kept,
    /// carrying every column — see the module docs).
    pub fn checkpoint(&self, catalog: &Catalog) -> Result<u64, StorageError> {
        let _one_at_a_time = self.inner.checkpointing.lock();
        let (snap_version, tables) = self.begin_checkpoint(catalog)?;
        self.finish_checkpoint(snap_version, tables)
    }

    /// First half of a checkpoint: from here until [`finish_checkpoint`]
    /// has saved (or failed to), staged records carry every column; then
    /// the snapshot the save will write.
    ///
    /// [`finish_checkpoint`]: CommitLog::finish_checkpoint
    fn begin_checkpoint(&self, catalog: &Catalog) -> Result<(u64, View), StorageError> {
        let mut sched = self.inner.sched.lock();
        if let Some(msg) = &sched.poisoned {
            return Err(StorageError::Durability(msg.clone()));
        }
        sched.raced = Some(Vec::new());
        drop(sched); // a committer holds the catalog lock while it stages
        Ok(catalog.begin_evolution())
    }

    /// Second half: saves the snapshot, restarts the view from it, and
    /// truncates the records it covers.
    fn finish_checkpoint(&self, snap_version: u64, tables: View) -> Result<u64, StorageError> {
        let inner = &self.inner;
        let content = Content::Catalog(snap_version, tables.values().cloned().collect());
        let saved = persist::save_content(&content, &inner.target);
        {
            let mut sched = inner.sched.lock();
            let raced = sched.raced.take().unwrap_or_default();
            saved?;
            // The file is the recovery base now, and it holds the live
            // catalog's tables, logged or not: the view restarts from them.
            let mut view = tables;
            for r in raced.iter().filter(|r| r.version > snap_version) {
                for t in &r.puts {
                    view.insert(t.name().to_string(), Arc::clone(t));
                }
                remove_dropped(&mut view, &r.drops, &r.puts);
            }
            sched.view = view;
        }
        let res = self.truncate_covered(snap_version);
        if let Err(e) = &res {
            let mut sched = inner.sched.lock();
            sched.poisoned = Some(e.to_string());
            inner.done.notify_all();
        }
        res
    }

    /// Drops every entry with `version <= snap_version` from the log file.
    /// Versions rise along the log, so those are its head.
    fn truncate_covered(&self, snap_version: u64) -> Result<u64, StorageError> {
        let inner = &self.inner;
        let mut io = inner.io.lock();
        let io = &mut *io;
        let before = io.entries.len();
        io.entries.retain(|e| e.version > snap_version);
        let truncated = (before - io.entries.len()) as u64;
        if truncated == 0 {
            return Ok(0);
        }
        let Some(first) = io.entries.first() else {
            // Nothing survives: truncate in place to a bare header.
            fault::set_len(&io.file, CLOG_HEADER_BYTES)?;
            fault::sync(&io.file)?;
            io.len = CLOG_HEADER_BYTES;
            return Ok(truncated);
        };
        // Some records postdate the snapshot: rebuild the log as header +
        // retained records in a temp file and rename it over the old one —
        // atomic, like a rewrite save.
        let cut = first.offset - CLOG_HEADER_BYTES;
        let mut retained = vec![0u8; (io.len - first.offset) as usize];
        io.file.seek(SeekFrom::Start(first.offset))?;
        io.file.read_exact(&mut retained)?;
        let tmp = inner.log_path.with_extension("clog.tmp");
        let mut f = fault::create(&tmp)?;
        fault::write_all(&mut f, &clog_header())?;
        fault::write_all(&mut f, &retained)?;
        fault::sync(&f)?;
        drop(f);
        fault::rename(&tmp, &inner.log_path)?;
        fault::sync_dir(&inner.log_path)?;
        io.file = fault::open_rw(&inner.log_path)?;
        io.len -= cut;
        for e in &mut io.entries {
            e.offset -= cut;
        }
        Ok(truncated)
    }

    /// Leader path: encodes a whole batch of staged records — each once,
    /// straight into its frame in the batch buffer — and appends it,
    /// covering all of them with a single fsync.
    fn write_batch(&self, batch: &[Pending]) -> Result<(), StorageError> {
        let inner = &self.inner;
        let mut buf = inner.batch_buf.lock();
        let mut entries = Vec::with_capacity(batch.len());
        let (mut referenced, mut carried) = (0, 0);
        for p in batch {
            entries.push(Entry {
                version: p.version,
                offset: buf.len() as u64, // in the batch: rebased below
            });
            let (r, c) = wal::encode_frame(&mut buf, COMMIT_TAG, |out| encode_record(out, p))?;
            referenced += r;
            carried += c;
        }
        let mut io = inner.io.lock();
        let base = io.len;
        io.file.seek(SeekFrom::Start(base))?;
        fault::write_all(&mut io.file, &buf)?;
        let t0 = Instant::now();
        fault::sync(&io.file)?;
        inner
            .fsync_micros
            .fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
        inner.fsyncs.fetch_add(1, Ordering::Relaxed);
        inner
            .commits
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        inner
            .max_batch
            .fetch_max(batch.len() as u64, Ordering::Relaxed);
        inner
            .columns_referenced
            .fetch_add(referenced, Ordering::Relaxed);
        inner.columns_carried.fetch_add(carried, Ordering::Relaxed);
        inner
            .bytes_appended
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        io.entries.extend(entries.into_iter().map(|e| Entry {
            offset: base + e.offset,
            ..e
        }));
        io.len = base + buf.len() as u64;
        buf.clear();
        buf.shrink_to(BATCH_BUF_KEEP);
        Ok(())
    }
}

/// Appends one staged record to `out`; a carried image is appended once,
/// from the pieces [`persist::table_image`] made. A payload the image
/// cannot re-read fails the record: the leader returns the error and the
/// log poisons, where a panic would leave the batch marked as writing.
/// Returns how many of its put columns the record references and how many
/// it carries.
fn encode_record(out: &mut Vec<u8>, p: &Pending) -> Result<(u64, u64), StorageError> {
    let (mut referenced, mut carried) = (0, 0);
    out.put_u64_le(p.version);
    out.put_u32_le(p.drops.len() as u32);
    for d in &p.drops {
        put_str(out, d);
    }
    out.put_u32_le(p.puts.len() as u32);
    for put in &p.puts {
        let t = &put.table;
        put_str(out, t.name());
        put_schema(out, t.schema());
        out.put_u64_le(t.rows());
        out.put_u16_le(put.srcs.len() as u16);
        let mut carried_defs = Vec::new();
        let mut carried_cols = Vec::new();
        for (i, src) in put.srcs.iter().enumerate() {
            match src {
                Some((table, col)) => {
                    out.push(SRC_REUSED);
                    put_str(out, table);
                    out.put_u16_le(*col);
                }
                None => {
                    out.push(SRC_CARRIED);
                    carried_defs.push(t.schema().columns()[i].clone());
                    carried_cols.push(Arc::clone(t.column(i)));
                }
            }
        }
        referenced += (put.srcs.len() - carried_cols.len()) as u64;
        carried += carried_cols.len() as u64;
        if carried_cols.is_empty() {
            out.push(BODY_NONE);
            continue;
        }
        // The image is a table of the carried columns alone.
        let image = Table::new(t.name(), Schema::new(carried_defs)?, carried_cols)?;
        let img = persist::table_image(&image)?;
        out.push(BODY_IMAGE);
        out.put_u64_le(img.iter().map(Vec::len).sum::<usize>() as u64);
        for piece in &img {
            out.put_slice(piece);
        }
    }
    Ok((referenced, carried))
}

/// A commit goes through the log in two phases, for ordering:
/// [`stage`](CommitLog::stage) runs *under the catalog write lock*, so
/// records are sequenced in exactly the order their commits were applied
/// (it only enqueues — no I/O); [`wait`](CommitLog::wait) runs after the
/// lock is released and blocks until the staged record is on disk, riding
/// a group `fsync` shared with concurrent committers.
impl CommitLog {
    /// Sequences the commit diff for appending. `version` is the catalog
    /// version the commit produced; versions staged with one log strictly
    /// increase. Returns a ticket for [`wait`](CommitLog::wait).
    pub fn stage(
        &self,
        version: u64,
        drops: &[String],
        puts: &[Arc<Table>],
    ) -> Result<u64, StorageError> {
        let mut sched = self.inner.sched.lock();
        if let Some(msg) = &sched.poisoned {
            return Err(StorageError::Durability(msg.clone()));
        }
        if version <= sched.last_version {
            return Err(StorageError::Durability(format!(
                "commit version {version} does not pass {}, the last one logged",
                sched.last_version
            )));
        }
        sched.last_version = version;
        // Reuse is decided here, against the view as of the records staged
        // before this one — and not at all while a checkpoint is replacing
        // the base those references would resolve on.
        let carry_all = sched.raced.is_some();
        let mut staged = Vec::with_capacity(puts.len());
        for t in puts {
            let srcs = if carry_all {
                vec![None; t.arity()]
            } else {
                let view = &sched.view;
                t.columns().iter().map(|c| find_column(view, c)).collect()
            };
            sched.view.insert(t.name().to_string(), Arc::clone(t));
            staged.push(StagedPut {
                table: Arc::clone(t),
                srcs,
            });
        }
        remove_dropped(&mut sched.view, drops, puts);
        if let Some(raced) = &mut sched.raced {
            raced.push(Raced {
                version,
                drops: drops.to_vec(),
                puts: puts.to_vec(),
            });
        }
        sched.next_ticket += 1;
        let ticket = sched.next_ticket;
        sched.queue.push(Pending {
            ticket,
            version,
            drops: drops.to_vec(),
            puts: staged,
        });
        Ok(ticket)
    }

    /// Blocks until the staged record is durable (or the log has failed).
    pub fn wait(&self, ticket: u64) -> Result<(), StorageError> {
        let inner = &self.inner;
        loop {
            let batch = {
                let mut sched = inner.sched.lock();
                loop {
                    if sched.durable >= ticket {
                        return Ok(());
                    }
                    if let Some(msg) = &sched.poisoned {
                        return Err(StorageError::Durability(msg.clone()));
                    }
                    if !sched.writing && !sched.queue.is_empty() {
                        sched.writing = true;
                        break std::mem::take(&mut sched.queue);
                    }
                    sched = inner.done.wait(sched).unwrap_or_else(|e| e.into_inner());
                }
            };
            // This thread is the leader for `batch` (which contains its own
            // ticket or an earlier one): write it outside the scheduler
            // lock so later committers can keep staging.
            let last = batch.last().map(|p| p.ticket).unwrap_or(0);
            let res = self.write_batch(&batch);
            let mut sched = inner.sched.lock();
            sched.writing = false;
            match res {
                Ok(()) => sched.durable = sched.durable.max(last),
                Err(e) => sched.poisoned = Some(e.to_string()),
            }
            inner.done.notify_all();
        }
    }
}

/// One decoded put: well-formed on its own, not yet checked against any
/// state.
struct PutRecord {
    name: String,
    schema: Schema,
    rows: u64,
    /// One entry per schema column.
    srcs: Vec<Src>,
    /// The image of the carried columns; `None` exactly when every column
    /// is a reference.
    body: Option<Bytes>,
}

impl PutRecord {
    fn summary(&self) -> PutSummary {
        let carried = self.srcs.iter().filter(|s| s.is_none()).count();
        PutSummary {
            table: self.name.clone(),
            referenced: self.srcs.len() - carried,
            carried,
            carried_bytes: self.body.as_ref().map_or(0, |img| img.len() as u64),
        }
    }
}

struct Record {
    version: u64,
    drops: Vec<String>,
    puts: Vec<PutRecord>,
}

fn corrupt(msg: String) -> StorageError {
    StorageError::Corrupt(msg)
}

/// Decodes a sealed record payload. A sealed-but-undecodable record is a
/// hard corruption, never silently skipped — the frame checksum already
/// passed, so the bytes are what was written: every fault of the bytes
/// (the codec reports them as [`StorageError::PersistError`]) is
/// [`StorageError::Corrupt`] here. No count read here sizes an allocation
/// before the bytes behind it have been seen, and an image is a slice of
/// `payload`, not a copy.
fn decode_record(payload: &Bytes) -> Result<Record, StorageError> {
    read_record(payload).map_err(|e| match e {
        StorageError::PersistError(m) => corrupt(format!("commit record: {m}")),
        e => e,
    })
}

fn read_record(payload: &Bytes) -> Result<Record, StorageError> {
    let mut r = Reader::new(payload);
    let version = r.u64()?;
    let n = r.count(4)?;
    let mut drops = Vec::with_capacity(n);
    for _ in 0..n {
        drops.push(read_str(&mut r)?.to_owned());
    }
    let mut puts = Vec::new();
    for _ in 0..r.count(1)? {
        let name = read_str(&mut r)?.to_owned();
        let schema = read_schema(&mut r)?;
        let rows = r.u64()?;
        let ncols = r.u16()? as usize;
        if ncols != schema.arity() {
            return Err(corrupt(format!(
                "put {name:?} lists {ncols} columns for a schema of {}",
                schema.arity()
            )));
        }
        let mut srcs = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            srcs.push(match r.u8()? {
                SRC_REUSED => Some((read_str(&mut r)?.to_owned(), r.u16()?)),
                SRC_CARRIED => None,
                tag => return Err(corrupt(format!("unknown commit-record src tag {tag}"))),
            });
        }
        let body = match r.u8()? {
            BODY_NONE => None,
            BODY_IMAGE => {
                let len = usize::try_from(r.u64()?)
                    .map_err(|_| corrupt("image beyond address space".into()))?;
                let start = r.position();
                r.take(len)?;
                Some(payload.slice(start..r.position()))
            }
            tag => return Err(corrupt(format!("unknown commit-record body tag {tag}"))),
        };
        match (body.is_some(), srcs.iter().any(|s| s.is_none())) {
            (true, false) => {
                return Err(corrupt(format!(
                    "put {name:?} has an image and no column to take from it"
                )))
            }
            (false, true) => {
                return Err(corrupt(format!(
                    "put {name:?} takes columns from an image it does not have"
                )))
            }
            _ => {}
        }
        puts.push(PutRecord {
            name,
            schema,
            rows,
            srcs,
            body,
        });
    }
    r.finish()?;
    Ok(Record {
        version,
        drops,
        puts,
    })
}

/// Rebuilds one put's table over `state`: reused columns are looked up by
/// table name and column index, carried ones taken in order from the image
/// (which the record's frame checksum already covered). Anything that does not
/// fit — an unknown table, an index past its arity, an image of the wrong
/// width, a column whose type or row count is not the schema's — is
/// [`StorageError::Corrupt`].
fn resolve_put(put: PutRecord, state: &View) -> Result<Table, StorageError> {
    // Decoded from memory — the buffer the log was read into — so the
    // replayed columns never depend on a file a checkpoint will truncate.
    let image = put.body.map(persist::decode_table).transpose()?;
    let carried = put.srcs.iter().filter(|s| s.is_none()).count();
    if image.as_ref().map_or(0, Table::arity) != carried {
        return Err(corrupt(format!(
            "put {:?} takes {carried} columns from an image of {}",
            put.name,
            image.as_ref().map_or(0, Table::arity)
        )));
    }
    let mut from_image = image.iter().flat_map(|t| t.columns());
    let mut columns = Vec::with_capacity(put.srcs.len());
    for src in &put.srcs {
        let col = match src {
            None => from_image.next().expect("image width checked above"),
            Some((table, col)) => state
                .get(table)
                .ok_or_else(|| {
                    corrupt(format!(
                        "put {:?} reuses a column of {table:?}, which does not exist",
                        put.name
                    ))
                })?
                .columns()
                .get(*col as usize)
                .ok_or_else(|| {
                    corrupt(format!(
                        "put {:?} reuses column {col} of {table:?}, which is narrower",
                        put.name
                    ))
                })?,
        };
        columns.push(Arc::clone(col));
    }
    // `Table::new` holds every column to the schema's type and to one row
    // count; the record says which.
    let t = Table::new(put.name, put.schema, columns)
        .map_err(|e| corrupt(format!("commit record does not assemble: {e}")))?;
    if t.rows() != put.rows {
        return Err(corrupt(format!(
            "put {:?} claims {} rows, its columns have {}",
            t.name(),
            put.rows,
            t.rows()
        )));
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{Value, ValueType};

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "cods-clog-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn tiny(name: &str, rows: i64) -> Table {
        let schema = Schema::build(&[("k", ValueType::Int), ("v", ValueType::Str)], &[]).unwrap();
        let data: Vec<Vec<Value>> = (0..rows)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::str(if i % 2 == 0 { "x" } else { "y" }),
                ]
            })
            .collect();
        Table::from_rows(name, schema, &data).unwrap()
    }

    fn commit_put(cat: &Catalog, t: Table) {
        let (base, _) = cat.begin_evolution();
        cat.commit_evolution(base, &[], vec![Arc::new(t)]).unwrap();
    }

    #[test]
    fn acked_commits_survive_reopen_and_checkpoint_truncates() {
        let path = scratch("a.catalog");
        let (cat, log, replay) = open_durable(&path).unwrap();
        assert_eq!(replay, ReplayReport::default());
        commit_put(&cat, tiny("r", 10));
        commit_put(&cat, tiny("s", 4));
        let stats = log.stats();
        assert_eq!(stats.commits, 2);
        assert_eq!(stats.pending_records, 2);
        assert!(stats.fsyncs >= 1);

        // Reopen (simulated restart before any checkpoint): both commits
        // replay from the log alone.
        let (cat2, log2, replay2) = open_durable(&path).unwrap();
        assert_eq!(replay2.replayed, 2);
        assert!(!replay2.discarded_torn);
        assert_eq!(cat2.table_names(), vec!["r", "s"]);
        assert_eq!(
            persist::encode_table(&cat2.get("r").unwrap()).as_slice(),
            persist::encode_table(&cat.get("r").unwrap()).as_slice()
        );

        // Checkpoint: the save covers both records; the log empties.
        assert_eq!(log2.checkpoint(&cat2).unwrap(), 2);
        assert_eq!(log2.stats().pending_records, 0);
        let (cat3, _log3, replay3) = open_durable(&path).unwrap();
        assert_eq!(replay3.replayed, 0);
        assert_eq!(cat3.table_names(), vec!["r", "s"]);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn torn_tail_is_discarded_not_fatal() {
        let path = scratch("b.catalog");
        let (cat, _log, _r) = open_durable(&path).unwrap();
        commit_put(&cat, tiny("r", 8));
        commit_put(&cat, tiny("s", 8));
        // Tear the last record mid-frame.
        let log_path = clog_path(&path);
        let bytes = std::fs::read(&log_path).unwrap();
        std::fs::write(&log_path, &bytes[..bytes.len() - 7]).unwrap();

        let (cat2, _log2, replay) = open_durable(&path).unwrap();
        assert_eq!(replay.replayed, 1);
        assert!(replay.discarded_torn);
        assert_eq!(cat2.table_names(), vec!["r"]);
        // The tear was physically truncated: a further reopen is clean.
        let (_cat3, _log3, replay3) = open_durable(&path).unwrap();
        assert_eq!(replay3.replayed, 1);
        assert!(!replay3.discarded_torn);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    /// What the directory of `path` holds, sorted.
    fn files_beside(path: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    /// One Int column of `rows` distinct values: an image of about
    /// `12 * rows` bytes.
    fn big(name: &str, rows: i64) -> Table {
        let schema = Schema::build(&[("k", ValueType::Int)], &[]).unwrap();
        let data: Vec<Vec<Value>> = (0..rows).map(|i| vec![Value::Int(i * 7)]).collect();
        Table::from_rows(name, schema, &data).unwrap()
    }

    #[test]
    fn a_large_image_rides_in_its_record_and_the_log_is_the_only_file() {
        let path = scratch("c.catalog");
        let two = vec!["c.catalog".to_string(), "c.catalog.clog".to_string()];
        let (cat, log, _r) = open_durable(&path).unwrap();
        commit_put(&cat, tiny("small", 4));
        let small_end = std::fs::metadata(clog_path(&path)).unwrap().len() as usize;
        commit_put(&cat, big("big", 120_000));
        let image = persist::encode_table(&cat.get("big").unwrap());
        assert!(image.len() >= 1 << 20, "{} bytes", image.len());
        assert_eq!(files_beside(&path), two[1..], "a commit writes the log");
        let status = log_status(&path).unwrap();
        assert_eq!(status.records, 2);
        assert_eq!(status.pending[1].puts[0].carried_bytes, image.len() as u64);
        assert_eq!(log.stats().bytes_appended, status.valid_bytes - 6);
        // The batch that outgrew the buffer does not pin its size.
        assert!(log.inner.batch_buf.lock().capacity() <= BATCH_BUF_KEEP);
        drop((cat, log));

        // The big record ends `… body:u8 img_len:u64 image fnv:u64`. Cut at
        // every 4 KiB inside it and at each byte around `img_len` and the
        // checksum, or with one bit of the image flipped, it is a torn
        // tail: discarded, the acknowledged commit before it intact, never
        // a decoded table. Every tear is read (`log_status` shares the
        // reader); recovery's fsync is paid around the fields and for a
        // sample of the 4 KiB cuts.
        let log_bytes = std::fs::read(clog_path(&path)).unwrap();
        let sum_at = log_bytes.len() - 8;
        let image_at = sum_at - image.len();
        let len_at = image_at - 8;
        assert_eq!(&log_bytes[image_at..sum_at], image.as_slice());
        assert_eq!(
            log_bytes[len_at..image_at],
            (image.len() as u64).to_le_bytes()
        );
        let torn = |bytes: &[u8], reopen: bool, what: String| {
            std::fs::write(clog_path(&path), bytes).unwrap();
            let status = log_status(&path).unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(
                (status.records, status.valid_bytes, status.torn_bytes),
                (1, small_end as u64, (bytes.len() - small_end) as u64),
                "{what}"
            );
            if !reopen {
                return;
            }
            let (got, _log, replay) = open_durable(&path).unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(
                (replay.replayed, replay.discarded_torn),
                (1, true),
                "{what}"
            );
            assert_eq!(got.table_names(), vec!["small"], "{what}");
            assert_eq!(
                got.get("small").unwrap().to_rows(),
                tiny("small", 4).to_rows()
            );
            let len = std::fs::metadata(clog_path(&path)).unwrap().len();
            assert_eq!(len as usize, small_end, "{what}: the tear is truncated");
        };
        for (i, cut) in (small_end + 1..log_bytes.len()).step_by(4096).enumerate() {
            torn(&log_bytes[..cut], i % 32 == 0, format!("cut at {cut}"));
        }
        for cut in (len_at - 6..len_at + 14).chain(sum_at - 12..sum_at + 8) {
            torn(&log_bytes[..cut], true, format!("cut at {cut}"));
        }
        for at in [image_at, image_at + image.len() / 2, sum_at - 1] {
            let mut flipped = log_bytes.clone();
            flipped[at] ^= 0x04;
            torn(&flipped, true, format!("flip at {at}"));
        }
        std::fs::write(clog_path(&path), &log_bytes).unwrap();

        let (cat2, log2, replay) = open_durable(&path).unwrap();
        assert_eq!(replay.replayed, 2);
        assert_eq!(
            persist::encode_table(&cat2.get("big").unwrap()).as_slice(),
            image.as_slice()
        );
        assert_eq!(files_beside(&path), two[1..]);

        // Checkpoint: the image moves into the catalog file, the log is a
        // bare header again, and there is nothing else to clean up.
        assert_eq!(log2.checkpoint(&cat2).unwrap(), 2);
        assert_eq!(files_beside(&path), two);
        assert_eq!(std::fs::read(clog_path(&path)).unwrap(), clog_header());
        let (cat3, _log3, replay) = open_durable(&path).unwrap();
        assert_eq!(replay.replayed, 0);
        assert_eq!(
            persist::encode_table(&cat3.get("big").unwrap()).as_slice(),
            image.as_slice()
        );
        assert_eq!(files_beside(&path), two);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    /// A log of another format version is refused by number, a file that is
    /// no log by its magic — from both entry points, touching nothing.
    #[test]
    fn a_log_this_build_cannot_read_says_which_version_it_is() {
        let path = saved_base("old.catalog");
        let log_path = clog_path(&path);
        let mut v2 = clog_header().to_vec();
        v2[4..6].copy_from_slice(&2u16.to_le_bytes());
        let put = two_col(vec![Reuse("r", 0), Carry], body_side_file());
        let mut v2_record = v2.clone();
        wal::encode_frame(&mut v2_record, COMMIT_TAG, |out| {
            out.extend_from_slice(&raw_record(3, &[put]))
        });
        let mut not_a_log = v2.clone();
        not_a_log[0] ^= 0xFF;
        for (log, want) in [
            (&v2, "unsupported commit log version 2"),
            (&v2_record, "unsupported commit log version 2"),
            (&not_a_log, "is not a commit log"),
        ] {
            std::fs::write(&log_path, log).unwrap();
            let (names, catalog) = (files_beside(&path), std::fs::read(&path).unwrap());
            for res in [
                open_durable(&path).map(|_| ()),
                log_status(&path).map(|_| ()),
            ] {
                match res {
                    Err(StorageError::Corrupt(msg)) => assert!(msg.contains(want), "{msg}"),
                    other => panic!("wanted Corrupt({want}), got {other:?}"),
                }
            }
            assert_eq!(files_beside(&path), names);
            assert_eq!(&std::fs::read(&log_path).unwrap(), log);
            assert_eq!(std::fs::read(&path).unwrap(), catalog);
        }
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn commit_after_failed_log_is_refused() {
        let path = scratch("f.catalog");
        let (cat, log, _r) = open_durable(&path).unwrap();
        commit_put(&cat, tiny("r", 4));
        // Poison the log the way a crashed append would.
        log.inner.sched.lock().poisoned = Some("injected".into());
        let (base, _) = cat.begin_evolution();
        let err = cat.commit_evolution(base, &[], vec![Arc::new(tiny("s", 4))]);
        assert!(matches!(err, Err(StorageError::Durability(_))));
        // The refused commit never entered the catalog: stage vetoed it.
        assert_eq!(cat.table_names(), vec!["r"]);
        assert!(log.checkpoint(&cat).is_err());
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn rename_and_drop_survive_replay() {
        let path = scratch("g.catalog");
        let (cat, _log, _r) = open_durable(&path).unwrap();
        commit_put(&cat, tiny("a", 4));
        commit_put(&cat, tiny("b", 4));
        // A commit that renames a → c (drop a, put c) and drops b.
        let (base, snap) = cat.begin_evolution();
        let renamed = snap.get("a").unwrap().renamed("c");
        cat.commit_evolution(
            base,
            &["a".to_string(), "b".to_string()],
            vec![Arc::new(renamed)],
        )
        .unwrap();
        assert_eq!(cat.table_names(), vec!["c"]);
        let (cat2, _log2, replay) = open_durable(&path).unwrap();
        assert_eq!(replay.replayed, 3);
        assert_eq!(cat2.table_names(), vec!["c"]);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    // -- column references ------------------------------------------------

    /// A saved catalog file holding `r` (10 rows) and `s` (4 rows), both
    /// `(k Int, v Str)`, at catalog version 2 — the base the hand-built
    /// records below apply to.
    fn saved_base(name: &str) -> PathBuf {
        let path = scratch(name);
        let cat = Catalog::new();
        cat.create(tiny("r", 10)).unwrap();
        cat.create(tiny("s", 4)).unwrap();
        persist::save_catalog(&cat, &path).unwrap();
        path
    }

    #[test]
    fn a_put_names_the_columns_it_reuses_and_carries_the_rest() {
        let path = saved_base("refs.catalog");
        let (cat, log, _r) = open_durable(&path).unwrap();
        assert_eq!(
            cat.version(),
            2,
            "a reopened catalog starts at the file's version"
        );

        // Rename: both columns are columns of the view's `r`.
        let (base, snap) = cat.begin_evolution();
        let renamed = Arc::new(snap["r"].renamed("r2"));
        cat.commit_evolution(base, &["r".to_string()], vec![renamed])
            .unwrap();
        let stats = log.stats();
        assert_eq!((stats.columns_referenced, stats.columns_carried), (2, 0));
        assert_eq!(stats.bytes_appended, stats.log_bytes - CLOG_HEADER_BYTES);

        // One reused column, one new: the new one alone is carried — and a
        // second put of the same record refers to it through the first.
        let (base, snap) = cat.begin_evolution();
        let fresh = Arc::clone(tiny("x", 10).column(1));
        let schema = snap["r2"].schema().clone();
        let mixed = |name: &str| {
            let cols = vec![Arc::clone(snap["r2"].column(0)), Arc::clone(&fresh)];
            Arc::new(Table::new(name, schema.clone(), cols).unwrap())
        };
        cat.commit_evolution(base, &[], vec![mixed("m1"), mixed("m2")])
            .unwrap();
        let stats = log.stats();
        assert_eq!((stats.columns_referenced, stats.columns_carried), (5, 1));

        let status = log_status(&path).unwrap();
        assert_eq!(status.pending.len(), 2);
        assert_eq!(status.pending[0].version, 3);
        assert_eq!(status.pending[0].drops, vec!["r"]);
        let puts = &status.pending[1].puts;
        assert_eq!(
            (puts[0].referenced, puts[0].carried),
            (1, 1),
            "{:?}",
            puts[0]
        );
        assert!(puts[0].carried_bytes > 0);
        assert_eq!(
            (puts[1].referenced, puts[1].carried, puts[1].carried_bytes),
            (2, 0, 0)
        );

        // Replay resolves every reference: images equal, sharing restored.
        let (cat2, _log2, replay) = open_durable(&path).unwrap();
        assert_eq!(replay.replayed, 2);
        assert_eq!(cat2.version(), cat.version());
        for name in cat.table_names() {
            assert_eq!(
                persist::encode_table(&cat2.get(&name).unwrap()).as_slice(),
                persist::encode_table(&cat.get(&name).unwrap()).as_slice(),
                "{name}"
            );
        }
        let (m1, m2) = (cat2.get("m1").unwrap(), cat2.get("m2").unwrap());
        assert!(Arc::ptr_eq(m1.column(1), m2.column(1)));
        assert!(Arc::ptr_eq(m1.column(0), cat2.get("r2").unwrap().column(0)));
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn an_unlogged_table_is_not_in_the_view_and_is_carried_once() {
        let path = saved_base("unlogged.catalog");
        let (cat, log, _r) = open_durable(&path).unwrap();
        // `r` is replaced past the log: same name, same shape, other data.
        let schema = tiny("r", 10).schema().clone();
        let rows: Vec<Vec<Value>> = (0..10)
            .map(|i| vec![Value::Int(100 + i), Value::str("z")])
            .collect();
        cat.put(Table::from_rows("r", schema, &rows).unwrap());

        let (base, snap) = cat.begin_evolution();
        let copy = Arc::new(snap["r"].renamed("copy"));
        cat.commit_evolution(base, &[], vec![Arc::clone(&copy)])
            .unwrap();
        assert_eq!(log.stats().columns_carried, 2, "never the view's `r`");
        // The logged table is in the view now; a second copy reuses it.
        let (base, _) = cat.begin_evolution();
        cat.commit_evolution(base, &[], vec![Arc::new(copy.renamed("copy2"))])
            .unwrap();
        assert_eq!(log.stats().columns_carried, 2);
        assert_eq!(log.stats().columns_referenced, 2);

        let (cat2, _log2, _r) = open_durable(&path).unwrap();
        assert_eq!(cat2.get("copy").unwrap().to_rows(), copy.to_rows());
        assert_eq!(cat2.get("copy2").unwrap().to_rows(), copy.to_rows());
        assert_eq!(cat2.get("r").unwrap().to_rows(), tiny("r", 10).to_rows());
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn a_commit_inside_a_checkpoint_carries_everything_and_survives_it() {
        let path = saved_base("raced.catalog");
        let (cat, log, _r) = open_durable(&path).unwrap();
        let rename = |from: &str, to: &str| {
            let (base, snap) = cat.begin_evolution();
            let t = Arc::new(snap[from].renamed(to));
            cat.commit_evolution(base, &[from.to_string()], vec![t])
                .unwrap();
        };
        rename("r", "r2");
        assert_eq!(log.stats().columns_carried, 0);

        // Snapshot taken, save not yet run: the racing commit could be
        // replayed on either base.
        let (snap_version, tables) = log.begin_checkpoint(&cat).unwrap();
        rename("s", "s2");
        assert_eq!(log.stats().columns_carried, 2);
        assert_eq!(log.finish_checkpoint(snap_version, tables).unwrap(), 1);
        assert_eq!(log.stats().pending_records, 1, "the racing record is kept");

        // The view is the saved tables plus that record: reuse works again.
        rename("s2", "s3");
        assert_eq!(log.stats().columns_carried, 2);
        let (cat2, _log2, replay) = open_durable(&path).unwrap();
        assert_eq!(replay.replayed, 2);
        assert_eq!(cat2.table_names(), vec!["r2", "s3"]);
        assert_eq!(cat2.get("s3").unwrap().to_rows(), tiny("s", 4).to_rows());
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    /// The mutations of one append-save whose new payloads, blocks and
    /// index land in `runs` runs of free space: they are synced before the
    /// older commit slot is overwritten; that slot write — the commit
    /// point — is synced before the file is cut and the save returns. No
    /// file is created or removed, so no directory is synced.
    fn append_save_trace(runs: usize) -> Vec<fault::Mutation> {
        use fault::Mutation::*;
        let mut trace = vec![Write; runs];
        trace.extend([
            Sync, Write, // the commit slot
            Sync, SetLen,
        ]);
        trace
    }

    #[test]
    fn a_save_and_a_checkpoint_sync_each_step_in_order() {
        use fault::Mutation::*;
        let path = saved_base("order.catalog");
        let (cat, log, _r) = open_durable(&path).unwrap();
        commit_put(&cat, tiny("t", 6));

        // A plain append-save. How many runs the new bytes take depends on
        // the gaps the states before left: these are this script's.
        let ((), _, trace) = fault::probe(|| persist::save_catalog(&cat, &path).unwrap());
        assert_eq!(trace, append_save_trace(1));

        // A checkpoint that covers every record truncates the log in place.
        commit_put(&cat, tiny("u", 6));
        let (covered, _, trace) = fault::probe(|| log.checkpoint(&cat).unwrap());
        assert_eq!(covered, 2);
        let mut want = append_save_trace(2);
        want.extend([SetLen, Sync]);
        assert_eq!(trace, want);

        // One with a record past its snapshot rebuilds the log by rename,
        // and syncs the directory before the checkpoint returns.
        let (snap_version, tables) = log.begin_checkpoint(&cat).unwrap();
        commit_put(&cat, tiny("w", 6));
        let (covered, _, trace) =
            fault::probe(|| log.finish_checkpoint(snap_version, tables).unwrap());
        assert_eq!(covered, 0);
        assert_eq!(trace, append_save_trace(1));
        commit_put(&cat, tiny("x", 6));
        let (snap_version, tables) = log.begin_checkpoint(&cat).unwrap();
        commit_put(&cat, tiny("y", 6));
        let (covered, _, trace) =
            fault::probe(|| log.finish_checkpoint(snap_version, tables).unwrap());
        assert_eq!(covered, 2);
        let mut want = append_save_trace(3);
        want.extend([
            Create("order.catalog.clog.tmp".into()),
            Write,
            Write,
            Sync,
            Rename("order.catalog.clog.tmp".into(), "order.catalog.clog".into()),
            SyncDir,
        ]);
        assert_eq!(trace, want);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn records_the_file_covers_are_skipped_not_reapplied() {
        let path = saved_base("covered.catalog");
        let (cat, log, _r) = open_durable(&path).unwrap();
        let (base, snap) = cat.begin_evolution();
        let r2 = Arc::new(snap["r"].renamed("r2"));
        cat.commit_evolution(base, &["r".to_string()], vec![r2])
            .unwrap();
        // A crash between the save and the truncation: the file covers the
        // record, the record is still there — and it refers to `r`, which
        // the covered state no longer has.
        let log_bytes = std::fs::read(clog_path(&path)).unwrap();
        log.checkpoint(&cat).unwrap();
        std::fs::write(clog_path(&path), &log_bytes).unwrap();

        let (cat2, log2, replay) = open_durable(&path).unwrap();
        assert_eq!(replay.replayed, 0);
        assert_eq!(cat2.version(), cat.version());
        assert_eq!(cat2.table_names(), vec!["r2", "s"]);
        // It is still the next checkpoint's to truncate.
        assert_eq!(log2.stats().pending_records, 1);
        assert_eq!(log2.checkpoint(&cat2).unwrap(), 1);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn a_version_that_does_not_advance_is_refused_at_staging() {
        let path = saved_base("stale.catalog");
        let (_cat, log, _r) = open_durable(&path).unwrap();
        let t = Arc::new(tiny("t", 2));
        for stale in [0, 2] {
            assert!(matches!(
                log.stage(stale, &[], &[Arc::clone(&t)]),
                Err(StorageError::Durability(_))
            ));
        }
        let ticket = log.stage(3, &[], &[t]).unwrap();
        log.wait(ticket).unwrap();
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    // -- hostile sealed records -------------------------------------------

    const INT: ValueType = ValueType::Int;
    const STR: ValueType = ValueType::Str;

    /// One `src` entry of a hand-built put.
    enum RawSrc {
        Reuse(&'static str, u16),
        Carry,
        Tag(u8),
    }
    use RawSrc::{Carry, Reuse};

    /// A hand-built put: every field is written as given, consistent or not.
    struct RawPut {
        schema: Vec<(&'static str, ValueType)>,
        rows: u64,
        ncols: u16,
        srcs: Vec<RawSrc>,
        body: Vec<u8>,
    }

    fn body_none() -> Vec<u8> {
        vec![BODY_NONE]
    }

    /// Format 2's retired `body 1`: `str(file) img_len img_fnv`, the image
    /// in a side file.
    fn body_side_file() -> Vec<u8> {
        let mut body = vec![1u8];
        put_str(&mut body, "s1");
        body.extend_from_slice(&[0; 16]);
        body
    }

    /// A body holding the image of `cols` columns of `tiny("i", rows)`.
    fn body_image(rows: i64, cols: &[usize]) -> Vec<u8> {
        let t = tiny("i", rows);
        let defs = cols.iter().map(|&c| t.schema().columns()[c].clone());
        let image = Table::new(
            "i",
            Schema::new(defs.collect()).unwrap(),
            cols.iter().map(|&c| Arc::clone(t.column(c))).collect(),
        )
        .unwrap();
        let img = persist::encode_table(&image);
        let mut out = vec![BODY_IMAGE];
        out.extend_from_slice(&(img.len() as u64).to_le_bytes());
        out.extend_from_slice(&img);
        out
    }

    fn raw_record(version: u64, puts: &[RawPut]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&version.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes()); // no drops
        out.extend_from_slice(&(puts.len() as u32).to_le_bytes());
        for p in puts {
            put_str(&mut out, "out");
            put_schema(&mut out, &Schema::build(&p.schema, &[]).unwrap());
            out.extend_from_slice(&p.rows.to_le_bytes());
            out.extend_from_slice(&p.ncols.to_le_bytes());
            for src in &p.srcs {
                match src {
                    Reuse(table, col) => {
                        out.push(SRC_REUSED);
                        put_str(&mut out, table);
                        out.extend_from_slice(&col.to_le_bytes());
                    }
                    Carry => out.push(SRC_CARRIED),
                    RawSrc::Tag(t) => out.push(*t),
                }
            }
            out.extend_from_slice(&p.body);
        }
        out
    }

    /// Seals `payload` as the only record of `path`'s log and reopens.
    fn reopen_with_record(
        path: &Path,
        payload: &[u8],
    ) -> Result<(Catalog, CommitLog, ReplayReport), StorageError> {
        let mut log = clog_header().to_vec();
        wal::encode_frame(&mut log, COMMIT_TAG, |out| out.extend_from_slice(payload));
        std::fs::write(clog_path(path), log).unwrap();
        open_durable(path)
    }

    fn two_col(srcs: Vec<RawSrc>, body: Vec<u8>) -> RawPut {
        RawPut {
            schema: vec![("k", INT), ("v", STR)],
            rows: 10,
            ncols: 2,
            srcs,
            body,
        }
    }

    #[test]
    fn a_well_formed_hand_built_record_replays() {
        let path = saved_base("wellformed.catalog");
        let put = two_col(vec![Reuse("r", 0), Carry], body_image(10, &[1]));
        let (cat, _log, replay) = reopen_with_record(&path, &raw_record(3, &[put])).unwrap();
        assert_eq!(replay.replayed, 1);
        assert_eq!(cat.version(), 3);
        assert_eq!(cat.get("out").unwrap().to_rows(), tiny("r", 10).to_rows());
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    /// A sealed record whose image is a table file of an older format
    /// (its preamble names version 9) is refused by that number at replay,
    /// not read as this format's bytes.
    #[test]
    fn a_record_image_of_another_format_is_refused_by_number() {
        let path = saved_base("oldimage.catalog");
        let mut body = body_image(10, &[1]);
        // `BODY_IMAGE img_len:u64`, then the image: `magic:u32 version:u16`.
        body[13..15].copy_from_slice(&9u16.to_le_bytes());
        let put = two_col(vec![Reuse("r", 0), Carry], body);
        let log = {
            let mut log = clog_header().to_vec();
            wal::encode_frame(&mut log, COMMIT_TAG, |out| {
                out.extend_from_slice(&raw_record(3, &[put]))
            });
            log
        };
        std::fs::write(clog_path(&path), &log).unwrap();
        match open_durable(&path) {
            Err(StorageError::PersistError(m)) => assert_eq!(m, "unsupported version 9"),
            other => panic!("wanted the version refused, got {:?}", other.map(|_| ())),
        }
        assert_eq!(
            std::fs::read(clog_path(&path)).unwrap(),
            log,
            "nothing touched"
        );
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn hostile_sealed_records_are_typed_corrupt() {
        let path = saved_base("hostile.catalog");
        let int_col = |rows, srcs, body| RawPut {
            schema: vec![("k", INT)],
            rows,
            ncols: 1,
            srcs,
            body,
        };
        let cases: Vec<(&str, Vec<u8>)> = vec![
            (
                "src 0 names an unknown table",
                raw_record(
                    3,
                    &[two_col(vec![Reuse("ghost", 0), Reuse("r", 1)], body_none())],
                ),
            ),
            (
                "col is the table's arity",
                raw_record(
                    3,
                    &[two_col(vec![Reuse("r", 0), Reuse("r", 2)], body_none())],
                ),
            ),
            (
                "a reused column of another type",
                raw_record(
                    3,
                    &[two_col(vec![Reuse("r", 1), Reuse("r", 1)], body_none())],
                ),
            ),
            (
                "a carried column of another type",
                raw_record(
                    3,
                    &[two_col(vec![Reuse("r", 0), Carry], body_image(10, &[0]))],
                ),
            ),
            (
                "reused columns of two row counts",
                raw_record(
                    3,
                    &[two_col(vec![Reuse("r", 0), Reuse("s", 1)], body_none())],
                ),
            ),
            (
                "a row count the columns do not have",
                raw_record(3, &[int_col(7, vec![Reuse("r", 0)], body_none())]),
            ),
            (
                "a carried column of another row count",
                raw_record(
                    3,
                    &[two_col(vec![Reuse("r", 0), Carry], body_image(9, &[1]))],
                ),
            ),
            ("ncols below the schema's arity", {
                let mut p = two_col(vec![Reuse("r", 0)], body_none());
                p.ncols = 1;
                raw_record(3, &[p])
            }),
            ("ncols = u16::MAX with nothing behind it", {
                let mut p = int_col(10, vec![], vec![]);
                p.ncols = u16::MAX;
                raw_record(3, &[p])
            }),
            (
                "an image narrower than the src 1 entries",
                raw_record(3, &[two_col(vec![Carry, Carry], body_image(10, &[0]))]),
            ),
            (
                "an image wider than the src 1 entries",
                raw_record(
                    3,
                    &[two_col(vec![Reuse("r", 0), Carry], body_image(10, &[0, 1]))],
                ),
            ),
            (
                "body 2 with a src 1 present",
                raw_record(3, &[two_col(vec![Reuse("r", 0), Carry], body_none())]),
            ),
            (
                "body 0 with no src 1",
                raw_record(
                    3,
                    &[two_col(
                        vec![Reuse("r", 0), Reuse("r", 1)],
                        body_image(10, &[1]),
                    )],
                ),
            ),
            (
                "an unknown src tag",
                raw_record(
                    3,
                    &[two_col(vec![Reuse("r", 0), RawSrc::Tag(7)], body_none())],
                ),
            ),
            (
                "an unknown body tag",
                raw_record(3, &[two_col(vec![Reuse("r", 0), Reuse("r", 1)], vec![9])]),
            ),
            (
                "body 1, a tag no longer known",
                raw_record(3, &[two_col(vec![Reuse("r", 0), Carry], body_side_file())]),
            ),
            ("img_len one more than the bytes that remain", {
                let mut body = body_image(10, &[1]);
                let len = body.len() as u64 - 9 + 1;
                body[1..9].copy_from_slice(&len.to_le_bytes());
                raw_record(3, &[two_col(vec![Reuse("r", 0), Carry], body)])
            }),
            ("img_len = u64::MAX", {
                // Nothing is allocated by it: the cursor refuses first.
                let mut body = body_image(10, &[1]);
                body[1..9].copy_from_slice(&u64::MAX.to_le_bytes());
                raw_record(3, &[two_col(vec![Reuse("r", 0), Carry], body)])
            }),
            ("an image followed by trailing bytes", {
                let mut body = body_image(10, &[1]);
                body.extend_from_slice(&[0; 3]);
                raw_record(3, &[two_col(vec![Reuse("r", 0), Carry], body)])
            }),
            ("trailing bytes", {
                let mut rec = raw_record(
                    3,
                    &[two_col(vec![Reuse("r", 0), Reuse("r", 1)], body_none())],
                );
                rec.push(0);
                rec
            }),
            ("a put count with no puts behind it", {
                let mut rec = raw_record(3, &[]);
                let at = rec.len() - 4;
                rec[at..].copy_from_slice(&u32::MAX.to_le_bytes());
                rec
            }),
            ("a drop count with no names behind it", {
                let mut rec = raw_record(3, &[]);
                rec[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
                rec
            }),
        ];
        for (what, payload) in cases {
            match reopen_with_record(&path, &payload) {
                Err(StorageError::Corrupt(_)) => {}
                other => panic!("{what}: wanted Corrupt, got {:?}", other.map(|r| r.2)),
            }
        }
        // Two sealed records whose versions do not increase.
        let ok = || {
            raw_record(
                3,
                &[two_col(vec![Reuse("r", 0), Reuse("r", 1)], body_none())],
            )
        };
        let mut log = clog_header().to_vec();
        for rec in [ok(), ok()] {
            wal::encode_frame(&mut log, COMMIT_TAG, |out| out.extend_from_slice(&rec));
        }
        std::fs::write(clog_path(&path), log).unwrap();
        assert!(matches!(open_durable(&path), Err(StorageError::Corrupt(_))));
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }
}
