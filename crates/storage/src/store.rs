//! The segment buffer manager: demand-paged directory slots behind one
//! process-wide, byte-budgeted cache.
//!
//! Since format v6 a column opens as *metadata only* — schema, dictionary,
//! per-segment stats, zones, encoding/pin tags — while segment payloads stay
//! on disk. Each directory entry is a [`SegSlot`]: the segment's stats
//! ([`SegMeta`], their one owner, always resident) plus a payload that is
//! either decoded in memory or a [`DiskLoc`] into the file's payload heap.
//! A payload is held to its stats by one check, [`SegMeta::check_payload`],
//! whenever it is decoded ([`decode_payload`]) or verified
//! ([`SegSlot::check_invariants`]), whatever its encoding. The first payload touch faults
//! the segment in through the global [`SegmentStore`], which runs a clock
//! (second-chance) eviction sweep over decoded segments whenever the
//! configured byte budget is exceeded.
//!
//! Eviction rules:
//! * fresh segments (built in memory, never saved) have no disk location and
//!   are **never** evicted — there is nowhere to reload them from;
//! * a segment whose payload is borrowed at the moment is skipped;
//! * everything else is fair game, in clock order, with one second chance
//!   for recently touched slots. An encoding pin is column state
//!   ([`crate::encoded::EncodedColumn::segment_pinned`]) and exempts nothing.
//!
//! Slots are `Arc`-shared across table versions (UNION concat, slices,
//! catalog snapshots), so a cached segment serves every snapshot that
//! references it and is charged to the budget once.

use crate::encoded::{choose_encoding_from_stats, Encoding, SegmentEnc};
use crate::error::StorageError;
use crate::packed::PackedSegment;
use crate::rle_segment::RleSegment;
use crate::segment::{corrupt, read_bitmap, SealScratch, Segment};
use crate::span::{self, Span};
use bytes::{BufMut, Bytes};
use cods_bitmap::{RleSeq, Wah};
use parking_lot::{Mutex, RwLock};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};

/// A segment's present value ids and the rows carrying each. A list holds
/// them id by id; a *range* is a segment whose row `r` holds id `first +
/// r`, each id once — a dense key's segment — and is held by its bounds,
/// O(1) memory whatever its rows. The accessors answer both alike.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Present {
    /// Ascending ids and, parallel to them, the rows carrying each.
    List {
        /// Ascending global value ids present in the segment.
        ids: Arc<[u32]>,
        /// Rows carrying each present id (parallel to `ids`).
        ones: Arc<[u64]>,
    },
    /// Ids `first..first + count`, one row each, in row order.
    Range {
        /// The id of the segment's first row.
        first: u32,
        /// Rows, and ids.
        count: u32,
    },
}

impl Present {
    /// Number of present ids.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            Present::List { ids, .. } => ids.len(),
            Present::Range { count, .. } => *count as usize,
        }
    }

    /// Returns `true` when no id is present.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The ids `first..end` of a range; `None` for a list.
    #[inline]
    pub fn range(&self) -> Option<Range<u32>> {
        match self {
            Present::List { .. } => None,
            Present::Range { first, count } => Some(*first..first + count),
        }
    }

    /// Index of `id` within the present ids, if present (O(log present)
    /// for a list, O(1) for a range).
    #[inline]
    pub fn position_of(&self, id: u32) -> Option<usize> {
        match self {
            Present::List { ids, .. } => ids.binary_search(&id).ok(),
            Present::Range { first, count } => {
                let at = id.wrapping_sub(*first);
                (id >= *first && at < *count).then_some(at as usize)
            }
        }
    }

    /// The id at position `i`.
    ///
    /// # Panics
    /// Panics if `i` is past the present ids.
    #[inline]
    pub fn id(&self, i: usize) -> u32 {
        match self {
            Present::List { ids, .. } => ids[i],
            Present::Range { first, count } => {
                assert!(i < *count as usize, "position {i} past the range");
                first + i as u32
            }
        }
    }

    /// Rows carrying the id at position `i`.
    ///
    /// # Panics
    /// Panics if `i` is past the present ids.
    #[inline]
    pub fn ones(&self, i: usize) -> u64 {
        match self {
            Present::List { ones, .. } => ones[i],
            Present::Range { count, .. } => {
                assert!(i < *count as usize, "position {i} past the range");
                1
            }
        }
    }

    /// The present ids, ascending.
    pub fn ids(&self) -> impl ExactSizeIterator<Item = u32> + Clone + '_ {
        match self {
            Present::List { ids, .. } => Either::List(ids.iter().copied()),
            Present::Range { first, count } => Either::Range(*first..first + count),
        }
    }

    /// Every present id with its rows, ascending by id.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (u32, u64)> + '_ {
        let ones = match self {
            Present::List { ones, .. } => Either::List(ones.iter().copied()),
            Present::Range { count, .. } => Either::Range(std::iter::repeat_n(1, *count as usize)),
        };
        self.ids().zip(ones)
    }

    /// The ids and ones of a list.
    ///
    /// # Panics
    /// Panics on a range: only a packed segment is one, and its payload
    /// reads it by its bounds.
    pub(crate) fn list(&self) -> (&Arc<[u32]>, &Arc<[u64]>) {
        match self {
            Present::List { ids, ones } => (ids, ones),
            Present::Range { .. } => panic!("a range segment has no id list"),
        }
    }

    /// The largest present id, if any.
    pub fn last(&self) -> Option<u32> {
        self.len().checked_sub(1).map(|i| self.id(i))
    }
}

/// The items of a [`Present`], from its list or from its range.
#[derive(Clone)]
enum Either<L, R> {
    List(L),
    Range(R),
}

impl<T, L: Iterator<Item = T>, R: Iterator<Item = T>> Iterator for Either<L, R> {
    type Item = T;

    #[inline]
    fn next(&mut self) -> Option<T> {
        match self {
            Either::List(it) => it.next(),
            Either::Range(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            Either::List(it) => it.size_hint(),
            Either::Range(it) => it.size_hint(),
        }
    }
}

impl<T, L: ExactSizeIterator<Item = T>, R: ExactSizeIterator<Item = T>> ExactSizeIterator
    for Either<L, R>
{
}

/// A segment's statistics, and the one place they live: what scans read
/// to prune a segment without touching its payload, what the chooser
/// weighs, and what the buffer cache charges. A seal counts them
/// ([`SegmentEnc::seal`]), a table file stores them, and a payload is held
/// to them whenever it is decoded or checked ([`SegMeta::check_payload`]).
/// A decoded bitmap segment shares the id and ones slices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegMeta {
    /// Rows covered by the segment.
    pub rows: u64,
    /// The present ids and the rows carrying each.
    pub present: Present,
    /// Total maximal constant-value runs in row order (the chooser's
    /// statistic; what an RLE encoding stores).
    pub runs: u64,
    /// Compressed payload bytes — the cache charge of the decoded form.
    pub bytes: usize,
    /// The segment's physical encoding.
    pub encoding: Encoding,
}

impl SegMeta {
    /// The stats of a range segment of `rows` rows from id `first`: packed,
    /// one run a row, no payload and so no cache charge.
    ///
    /// # Panics
    /// Panics past `u32::MAX` rows.
    pub fn range(first: u32, rows: u64) -> SegMeta {
        SegMeta {
            rows,
            present: Present::Range {
                first,
                count: u32::try_from(rows).expect("a range of at most u32::MAX rows"),
            },
            runs: rows,
            bytes: 0,
            encoding: Encoding::Packed,
        }
    }

    /// `true` for a range segment ([`Present::Range`]).
    #[inline]
    pub fn is_range(&self) -> bool {
        matches!(self.present, Present::Range { .. })
    }

    /// Number of distinct values present.
    #[inline]
    pub fn distinct_count(&self) -> usize {
        self.present.len()
    }

    /// Index of `id` within the present ids, if present (O(log present)).
    #[inline]
    pub fn position_of(&self, id: u32) -> Option<usize> {
        self.present.position_of(id)
    }

    /// Returns `true` when `id` occurs in the segment (O(log present)).
    #[inline]
    pub fn contains_id(&self, id: u32) -> bool {
        self.position_of(id).is_some()
    }

    /// Number of rows carrying `id` (0 when absent; O(log present)).
    pub fn count_for(&self, id: u32) -> u64 {
        self.position_of(id).map_or(0, |i| self.present.ones(i))
    }

    /// What the stats-driven chooser picks for this segment alone.
    pub fn choose_encoding(&self) -> Encoding {
        choose_encoding_from_stats(self.runs, self.rows, self.distinct_count() as u64, 1)
    }

    /// The invariants of the stats themselves: strictly ascending ids, one
    /// non-zero row count per id, and counts that sum to the rows; a range
    /// is a packed segment of one row per id, its ids inside `u32`.
    pub fn check(&self) -> Result<(), String> {
        let (ids, ones) = match &self.present {
            Present::List { ids, ones } => (ids, ones),
            Present::Range { first, count } => {
                if u64::from(*count) != self.rows || *count == 0 {
                    return Err(format!(
                        "a range of {count} ids in a segment of {} rows",
                        self.rows
                    ));
                }
                if first.checked_add(*count).is_none() {
                    return Err(format!("a range of {count} ids from {first} passes u32"));
                }
                if self.encoding != Encoding::Packed || self.runs != self.rows || self.bytes != 0 {
                    return Err("a range segment is packed, one run a row, no bytes".into());
                }
                return Ok(());
            }
        };
        if ids.len() != ones.len() {
            return Err("ids and ones differ in length".into());
        }
        if ids.windows(2).any(|w| w[0] >= w[1]) {
            return Err("present ids not strictly ascending".into());
        }
        if ones.contains(&0) {
            return Err("present id with zero rows".into());
        }
        let total = ones
            .iter()
            .try_fold(0u64, |t, &n| t.checked_add(n))
            .ok_or("per-id row counts overflow")?;
        if total != self.rows {
            return Err(format!(
                "per-id row counts sum to {total}, segment has {} rows",
                self.rows
            ));
        }
        Ok(())
    }

    /// The one check that a payload is the segment its meta describes,
    /// under both the payload decoder and [`SegSlot::check_invariants`]:
    /// `found` is what the payload itself counts to — rows, present ids,
    /// ones, runs and bytes, recounted by the pass that read it — and must
    /// equal these stats field by field.
    pub fn check_payload(&self, found: &SegMeta) -> Result<(), String> {
        let (ids, ones) = match (&self.present, &found.present) {
            (Present::List { ids: a, ones: x }, Present::List { ids: b, ones: y }) => {
                (a != b, x != y)
            }
            (a, b) => (a != b, false),
        };
        let differs = [
            ("encoding", found.encoding != self.encoding),
            ("rows", found.rows != self.rows),
            ("present ids", ids),
            ("ones", ones),
            ("runs", found.runs != self.runs),
            ("bytes", found.bytes != self.bytes),
        ];
        match differs.iter().find(|(_, d)| *d) {
            Some((what, _)) => Err(format!("recounted {what} do not match the metadata")),
            None => Ok(()),
        }
    }
}

/// A stable identity for an open file: `(device, inode)` on unix. Saves
/// and vacuums compare it against the file currently at a path to detect
/// stale handles — after a vacuum rewrote a file via rename, slots opened
/// from the *old* inode must not donate their (now meaningless) offsets to
/// an append-save onto the new one.
pub(crate) type FileId = (u64, u64);

/// The identity of the file behind `meta`, when the platform exposes one.
#[cfg(unix)]
pub(crate) fn file_id_of(meta: &std::fs::Metadata) -> Option<FileId> {
    use std::os::unix::fs::MetadataExt;
    Some((meta.dev(), meta.ino()))
}

/// Fallback for platforms without stable file identities: callers fall
/// back to path equality (the pre-vacuum behavior).
#[cfg(not(unix))]
pub(crate) fn file_id_of(_meta: &std::fs::Metadata) -> Option<FileId> {
    None
}

/// Where a segment payload lives when it is not decoded in memory.
#[derive(Debug)]
pub enum PayloadSource {
    /// An in-memory v6 image (the `decode_table`/`decode_catalog` path).
    Bytes(Bytes),
    /// An open v6 file (the `read_table`/`read_catalog` path). The path is
    /// canonical, so append-save can recognise saves onto the same file.
    File {
        /// The open file handle (positional reads, no shared cursor on unix).
        file: std::fs::File,
        /// Canonicalized path of the file.
        path: std::path::PathBuf,
        /// Identity of the inode the handle is bound to (see `FileId`).
        id: Option<FileId>,
    },
}

impl PayloadSource {
    /// Wraps an open file, capturing its identity.
    pub(crate) fn for_file(file: std::fs::File, path: std::path::PathBuf) -> PayloadSource {
        let id = file.metadata().ok().and_then(|m| file_id_of(&m));
        PayloadSource::File { file, path, id }
    }

    /// The identity of the backing inode, when file-backed and known.
    pub(crate) fn file_id(&self) -> Option<FileId> {
        match self {
            PayloadSource::Bytes(_) => None,
            PayloadSource::File { id, .. } => *id,
        }
    }
    /// Reads `len` bytes at `offset`.
    pub(crate) fn read_at(&self, offset: u64, len: u64) -> std::io::Result<Vec<u8>> {
        match self {
            PayloadSource::Bytes(b) => {
                let lo = usize::try_from(offset).ok();
                let hi = lo.and_then(|lo| lo.checked_add(len as usize));
                match (lo, hi) {
                    (Some(lo), Some(hi)) if hi <= b.len() => Ok(b.as_slice()[lo..hi].to_vec()),
                    _ => Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "segment payload outside the in-memory image",
                    )),
                }
            }
            #[cfg(unix)]
            PayloadSource::File { file, .. } => {
                use std::os::unix::fs::FileExt;
                let mut buf = vec![0u8; len as usize];
                file.read_exact_at(&mut buf, offset)?;
                Ok(buf)
            }
            #[cfg(not(unix))]
            PayloadSource::File { file, .. } => {
                use std::io::{Read, Seek, SeekFrom};
                let mut f = file;
                f.seek(SeekFrom::Start(offset))?;
                let mut buf = vec![0u8; len as usize];
                f.read_exact(&mut buf)?;
                Ok(buf)
            }
        }
    }

    /// The canonical file path, when file-backed.
    pub(crate) fn path(&self) -> Option<&std::path::Path> {
        match self {
            PayloadSource::Bytes(_) => None,
            PayloadSource::File { path, .. } => Some(path),
        }
    }
}

/// The on-disk location of one segment payload.
#[derive(Clone, Debug)]
pub struct DiskLoc {
    /// The backing image or file.
    pub(crate) source: Arc<PayloadSource>,
    /// Byte offset of the payload in the source.
    pub(crate) offset: u64,
    /// Payload length in bytes.
    pub(crate) len: u64,
}

/// Shared innards of a [`SegSlot`].
#[derive(Debug)]
pub(crate) struct SlotInner {
    meta: SegMeta,
    /// Where the payload can be reloaded from. Fresh slots gain a location
    /// when the table is saved (and only then become evictable); a vacuum
    /// *rebinds* the location to the compacted file it just wrote.
    disk: RwLock<Option<DiskLoc>>,
    /// The decoded payload, `None` while paged out.
    payload: RwLock<Option<SegmentEnc>>,
    /// Clock reference bit: set on every payload touch, cleared by the
    /// sweep's second chance.
    touched: AtomicBool,
}

impl Drop for SlotInner {
    fn drop(&mut self) {
        // A cache-managed (disk-backed) slot that dies while resident gives
        // its bytes back to the gauge; ring entries are reaped lazily.
        if self.disk.get_mut().is_some() && self.payload.get_mut().is_some() {
            segment_cache()
                .resident
                .fetch_sub(self.meta.bytes as u64, Ordering::Relaxed);
        }
    }
}

/// One entry of a column's segment directory: resident stats plus a payload
/// that is either decoded or on disk. Cloning shares the slot.
#[derive(Clone)]
pub struct SegSlot(Arc<SlotInner>);

impl SegSlot {
    /// Wraps a freshly built (in-memory) segment and its stats. Fresh slots
    /// are resident and stay resident: with no disk location they are never
    /// evicted. `meta` is trusted to describe `enc` (a seal counted it);
    /// [`SegSlot::check_invariants`] verifies it for hand-built slots.
    pub fn fresh(meta: SegMeta, enc: SegmentEnc) -> SegSlot {
        SegSlot(Arc::new(SlotInner {
            meta,
            disk: RwLock::new(None),
            payload: RwLock::new(Some(enc)),
            touched: AtomicBool::new(false),
        }))
    }

    /// Builds a paged-out slot from decoded metadata and a disk location
    /// (the v6 open path).
    pub(crate) fn on_disk(meta: SegMeta, loc: DiskLoc) -> SegSlot {
        SegSlot(Arc::new(SlotInner {
            meta,
            disk: RwLock::new(Some(loc)),
            payload: RwLock::new(None),
            touched: AtomicBool::new(false),
        }))
    }

    /// The segment's stats: resident, so reading them never faults.
    #[inline]
    pub fn meta(&self) -> &SegMeta {
        &self.0.meta
    }

    /// Returns `true` while the payload is decoded in memory.
    pub fn is_resident(&self) -> bool {
        self.0.payload.read().is_some()
    }

    /// The payload's reload location, when the slot is disk-backed.
    /// (A clone: `DiskLoc` is an `Arc` plus two integers.)
    pub(crate) fn disk_loc(&self) -> Option<DiskLoc> {
        self.0.disk.read().clone()
    }

    /// Attaches a reload location to a fresh slot after a save. Returns
    /// `true` when newly attached (the caller then enrols the slot in the
    /// cache); a second save is a no-op.
    pub(crate) fn attach_disk(&self, loc: DiskLoc) -> bool {
        let mut guard = self.0.disk.write();
        if guard.is_some() {
            return false;
        }
        *guard = Some(loc);
        true
    }

    /// Rebinds the reload location unconditionally — the vacuum path,
    /// after it rewrote the backing file and every offset moved. Returns
    /// `true` when the slot was fresh (had no location) before, in which
    /// case the caller must enrol it in the cache like a first save.
    pub(crate) fn rebind_disk(&self, loc: DiskLoc) -> bool {
        let mut guard = self.0.disk.write();
        let was_fresh = guard.is_none();
        *guard = Some(loc);
        was_fresh
    }

    /// Canonical path of the backing file, when the slot is file-backed.
    pub fn backing_path(&self) -> Option<std::path::PathBuf> {
        self.0
            .disk
            .read()
            .as_ref()
            .and_then(|loc| loc.source.path().map(|p| p.to_path_buf()))
    }

    /// Identity comparison: do two directory entries share one slot?
    pub fn ptr_eq(&self, other: &SegSlot) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// The slot's identity as a map key: what the persist writer stores a
    /// payload once per, however many directories share the slot.
    pub(crate) fn ident(&self) -> usize {
        Arc::as_ptr(&self.0) as usize
    }

    /// The decoded payload, faulting it in from disk on first touch.
    ///
    /// # Panics
    /// Panics when the payload cannot be reloaded (I/O error or corrupt
    /// bytes under a valid footer — both indicate the file changed under
    /// us). Use [`SegSlot::try_enc`] to observe the error instead.
    pub fn enc(&self) -> SegmentEnc {
        self.try_enc()
            .unwrap_or_else(|e| panic!("segment fault failed: {e}"))
    }

    /// The decoded payload, faulting it in from disk on first touch.
    pub fn try_enc(&self) -> Result<SegmentEnc, StorageError> {
        let store = segment_cache();
        {
            let guard = self.0.payload.read();
            if let Some(enc) = &*guard {
                self.0.touched.store(true, Ordering::Relaxed);
                if self.0.disk.read().is_some() {
                    store.hits.fetch_add(1, Ordering::Relaxed);
                }
                return Ok(enc.clone());
            }
        }
        let enc = {
            let mut guard = self.0.payload.write();
            if let Some(enc) = &*guard {
                // Another thread faulted it in while we waited.
                self.0.touched.store(true, Ordering::Relaxed);
                store.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(enc.clone());
            }
            let loc = self
                .0
                .disk
                .read()
                .clone()
                .expect("paged-out slot without a disk location");
            let raw = loc.source.read_at(loc.offset, loc.len)?;
            let enc = decode_payload(&self.0.meta, &raw)?;
            *guard = Some(enc.clone());
            self.0.touched.store(true, Ordering::Relaxed);
            enc
        };
        store.record_fault(self);
        Ok(enc)
    }

    /// The bitmaps of present-id positions `at`, read from disk without
    /// making the slot resident: for each position the head entries around
    /// it and then its words (`segment::read_bitmap`), each bitmap checked
    /// on its own — canonical words, `rows` long, the meta's ones. The read
    /// counts as one cache miss and adds the bytes it read to
    /// `decoded_bytes`. `None` when there is nothing to gain — then read
    /// the payload ([`SegSlot::try_enc`]): the slot is resident (or has no
    /// disk location) or not a bitmap segment, or the cache has no budget.
    ///
    /// The budget is the whole test. With an unlimited cache nothing is
    /// ever evicted, so a fault is paid once and every later read of the
    /// segment hits; with a budget the faulted segment may be paged out
    /// again before its next read, so the read is selective. The test does
    /// not read the resident gauge: that gauge counts what every table in
    /// the process holds, so one query's read path would then depend on
    /// what other tables keep resident, and the IN-list read of
    /// `tests/model.rs` asserts that it does not.
    ///
    /// # Panics
    /// Panics if a position is past the present ids.
    pub fn try_bitmaps(&self, at: &[usize]) -> Result<Option<Vec<Wah>>, StorageError> {
        if self.0.meta.encoding != Encoding::Bitmap
            || segment_cache().budget() == u64::MAX
            || self.is_resident()
        {
            return Ok(None);
        }
        let Some(loc) = self.disk_loc() else {
            return Ok(None);
        };
        let mut read = 0u64;
        let mut read_at = |off: u64, n: u64| {
            read += n;
            Ok(loc.source.read_at(loc.offset + off, n)?)
        };
        let bitmaps = at
            .iter()
            .map(|&i| read_bitmap(&self.0.meta, i, loc.len, &mut read_at))
            .collect::<Result<_, _>>()?;
        let store = segment_cache();
        store.misses.fetch_add(1, Ordering::Relaxed);
        store.decoded_bytes.fetch_add(read, Ordering::Relaxed);
        Ok(Some(bitmaps))
    }

    /// Re-encodes to `encoding`, sharing the slot when already there: its
    /// rows read as runs and sealed in `encoding`, a fresh (resident) slot.
    /// A bitmap segment whose bitmaps leave a row uncovered is
    /// [`StorageError::Corrupt`] ([`Segment::fill_covering`]).
    pub(crate) fn recoded_with(
        &self,
        encoding: Encoding,
        scratch: &mut SealScratch,
    ) -> Result<SegSlot, StorageError> {
        if self.0.meta.encoding == encoding {
            return Ok(self.clone());
        }
        let mut seq = RleSeq::new();
        let rows = self.0.meta.rows;
        self.try_enc()?
            .read_in(rows, 0, &[(0, rows)], &mut seq, &mut Vec::new())?;
        Ok(SegmentEnc::seal(seq, encoding, scratch))
    }

    /// Rewrites the segment under an id translation (`map[old] =
    /// Some(new)`, injective on the present ids — a dictionary merge or
    /// compaction), faulting it in; the result is a fresh resident slot.
    /// Rows, runs and bytes carry over; the ids and ones are re-sorted. A
    /// packed segment under a monotone map keeps its payload; under any
    /// other its codes are permuted at the same width. A range that the map
    /// shifts by one offset stays a range; under any other map it is
    /// resealed packed.
    ///
    /// # Panics
    /// Panics if the map drops a present id.
    pub(crate) fn remap(&self, map: &[Option<u32>]) -> SegSlot {
        let m = &self.0.meta;
        let new = |old: u32| map[old as usize].expect("remap drops a present value");
        if let Some(ids) = m.present.range() {
            let first = new(ids.start);
            if ids.clone().zip(first..).all(|(old, want)| new(old) == want) {
                let meta = SegMeta::range(first, m.rows);
                let enc = SegmentEnc::Packed(Arc::new(PackedSegment::range(&meta)));
                return SegSlot::fresh(meta, enc);
            }
            let seq = ids.map(new).collect();
            return SegmentEnc::seal(seq, Encoding::Packed, &mut SealScratch::default());
        }
        let mut order: Vec<(u32, usize)> = m
            .present
            .ids()
            .enumerate()
            .map(|(i, old)| (new(old), i))
            .collect();
        order.sort_unstable();
        let meta = SegMeta {
            present: Present::List {
                ids: order.iter().map(|&(new, _)| new).collect(),
                ones: order.iter().map(|&(_, i)| m.present.ones(i)).collect(),
            },
            ..m.clone()
        };
        debug_assert!(meta.check().is_ok(), "remap is not injective");
        let from = || order.iter().map(|&(_, i)| i).collect::<Vec<usize>>();
        let enc = match self.enc() {
            SegmentEnc::Bitmap(s) => SegmentEnc::Bitmap(Arc::new(s.remap(&meta, &from()))),
            SegmentEnc::Rle(s) => SegmentEnc::Rle(Arc::new(s.remap(map))),
            SegmentEnc::Packed(s) => SegmentEnc::Packed(Arc::new(s.remap(&meta, &from()))),
        };
        SegSlot::fresh(meta, enc)
    }

    /// Validates the stats ([`SegMeta::check`]) and the payload (faulting
    /// it in): its own invariants, then the one payload check against the
    /// stats.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.0.meta.check()?;
        let enc = self.try_enc().map_err(|e| e.to_string())?;
        self.0.meta.check_payload(&enc.recount()?)
    }
}

impl std::fmt::Debug for SegSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegSlot")
            .field("rows", &self.0.meta.rows)
            .field("encoding", &self.0.meta.encoding)
            .field("distinct", &self.0.meta.distinct_count())
            .field("resident", &self.is_resident())
            .field("on_disk", &self.0.disk.read().is_some())
            .finish()
    }
}

impl PartialEq for SegSlot {
    /// Payload equality (faults both sides in — test/verification use).
    fn eq(&self, other: &SegSlot) -> bool {
        self.ptr_eq(other) || self.enc() == other.enc()
    }
}

/// Serializes a segment payload in the heap format: a bitmap segment as
/// its head table (each present id's `end:u32` in the words that follow)
/// and then each present id's WAH words, active word last, in id order; an
/// RLE segment as the run-sequence codec; a packed segment as its words of
/// bit-packed codes.
pub fn encode_payload<B: BufMut>(enc: &SegmentEnc, buf: &mut B) {
    match enc {
        SegmentEnc::Bitmap(s) => s.encode(buf),
        SegmentEnc::Rle(s) => s.seq().encode(buf),
        SegmentEnc::Packed(s) => s.encode(buf),
    }
}

/// Encoded length of [`encode_payload`]'s output.
pub(crate) fn payload_encoded_len(enc: &SegmentEnc) -> usize {
    match enc {
        SegmentEnc::Bitmap(s) => s.encoded_len(),
        SegmentEnc::Rle(s) => s.seq().encoded_len(),
        SegmentEnc::Packed(s) => s.encoded_len(),
    }
}

/// Decodes a payload against its resident metadata: the payload is read,
/// its stats recounted by the same pass, and the recount held to the
/// metadata ([`SegMeta::check_payload`]) — a mismatch means the bytes are
/// not the segment the footer index promised. A bitmap payload decodes in
/// one pass straight into its segment's word arena (`Segment::decode`); a
/// packed one must be exactly the length its metadata gives, and is then
/// unpacked and recounted (`PackedSegment::recount`).
pub fn decode_payload(meta: &SegMeta, raw: &[u8]) -> Result<SegmentEnc, StorageError> {
    let mut span = span::enter(Span::fault(meta.encoding));
    span.items(|| raw.len() as u64);
    let (enc, found) = match meta.encoding {
        Encoding::Bitmap => {
            let (seg, found) = Segment::decode(meta, raw)?;
            (SegmentEnc::Bitmap(Arc::new(seg)), found)
        }
        Encoding::Rle => {
            let mut buf = raw;
            let seq = RleSeq::decode(&mut buf).map_err(|e| corrupt(&e.to_string()))?;
            if !buf.is_empty() {
                return Err(corrupt("trailing bytes after payload"));
            }
            let seg = RleSegment::new(seq);
            let found = seg.recount();
            (SegmentEnc::Rle(Arc::new(seg)), found)
        }
        Encoding::Packed => {
            let seg = PackedSegment::decode(meta, raw).map_err(|m| corrupt(&m))?;
            let found = seg.recount().map_err(|m| corrupt(&m))?;
            (SegmentEnc::Packed(Arc::new(seg)), found)
        }
    };
    meta.check_payload(&found).map_err(|m| corrupt(&m))?;
    Ok(enc)
}

/// The selective read of [`SegSlot::try_bitmaps`] over a bitmap payload
/// held in memory: the bitmaps of present-id positions `at`, each read
/// through its head entries and checked on its own. A read that would
/// reach past `raw` is an error, so nothing is sized past it.
///
/// # Panics
/// Panics if a position is past the present ids.
pub fn read_bitmaps(meta: &SegMeta, raw: &[u8], at: &[usize]) -> Result<Vec<Wah>, StorageError> {
    let mut read_at = |off: u64, n: u64| {
        usize::try_from(off + n)
            .ok()
            .and_then(|end| raw.get(off as usize..end))
            .map(<[u8]>::to_vec)
            .ok_or_else(|| corrupt("read past its end"))
    };
    at.iter()
        .map(|&i| read_bitmap(meta, i, raw.len() as u64, &mut read_at))
        .collect()
}

/// A snapshot of the buffer cache's telemetry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheStats {
    /// Byte budget (`u64::MAX` = unlimited).
    pub budget: u64,
    /// Decoded bytes currently charged to the cache (disk-backed slots).
    pub resident_bytes: u64,
    /// Payload touches served from memory.
    pub hits: u64,
    /// Payload reads from disk: each fault (reload + decode of a whole
    /// payload), and each selective read of a few bitmaps from a slot that
    /// stays paged out ([`SegSlot::try_bitmaps`]), one apiece.
    pub misses: u64,
    /// Paged-out segments.
    pub evictions: u64,
    /// Bytes brought in from disk (the cold-open/IO-work meter): a fault
    /// adds its segment's cache charge ([`SegMeta::bytes`]), a selective
    /// read the head entries and words it read.
    pub decoded_bytes: u64,
}

/// The two lines every surface prints the counters as: the local `cache`
/// command and the connect REPL's `metrics`.
impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "buffer cache: budget=")?;
        match self.budget {
            u64::MAX => write!(f, "unlimited")?,
            budget => write!(f, "{budget} bytes")?,
        }
        write!(
            f,
            " resident={} bytes\nfaults: {} hits, {} misses ({} bytes decoded), {} evictions",
            self.resident_bytes, self.hits, self.misses, self.decoded_bytes, self.evictions
        )
    }
}

/// Clock-ring state: weak handles on cache-managed slots plus the hand.
#[derive(Debug, Default)]
struct Ring {
    slots: Vec<Weak<SlotInner>>,
    hand: usize,
}

/// The process-wide segment buffer manager. Obtain it via
/// [`segment_cache`]; all faults, adoptions, and evictions go through it.
#[derive(Debug)]
pub struct SegmentStore {
    budget: AtomicU64,
    resident: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    decoded_bytes: AtomicU64,
    ring: Mutex<Ring>,
}

impl SegmentStore {
    fn new() -> SegmentStore {
        SegmentStore {
            budget: AtomicU64::new(u64::MAX),
            resident: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            decoded_bytes: AtomicU64::new(0),
            ring: Mutex::new(Ring::default()),
        }
    }

    /// Sets the byte budget (`u64::MAX` = unlimited) and immediately sweeps
    /// down to it.
    pub fn set_budget(&self, bytes: u64) {
        self.budget.store(bytes, Ordering::Relaxed);
        self.maybe_evict();
    }

    /// The current byte budget (`u64::MAX` = unlimited).
    pub fn budget(&self) -> u64 {
        self.budget.load(Ordering::Relaxed)
    }

    /// A telemetry snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            budget: self.budget.load(Ordering::Relaxed),
            resident_bytes: self.resident.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            decoded_bytes: self.decoded_bytes.load(Ordering::Relaxed),
        }
    }

    /// Zeroes the hit/miss/eviction/decoded counters (benchmark bracketing;
    /// the resident gauge and budget are left alone).
    pub fn reset_counters(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
        self.decoded_bytes.store(0, Ordering::Relaxed);
    }

    /// Books a fault: counters, the resident gauge, and clock enrolment.
    fn record_fault(&self, slot: &SegSlot) {
        let bytes = slot.0.meta.bytes as u64;
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.decoded_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.resident.fetch_add(bytes, Ordering::Relaxed);
        self.ring.lock().slots.push(Arc::downgrade(&slot.0));
        self.maybe_evict();
    }

    /// Enrols a formerly fresh slot that a save just made disk-backed: its
    /// resident bytes now count against the budget and it becomes
    /// evictable like any other cached segment.
    pub(crate) fn adopt(&self, slot: &SegSlot) {
        debug_assert!(slot.0.disk.read().is_some());
        self.resident
            .fetch_add(slot.0.meta.bytes as u64, Ordering::Relaxed);
        slot.0.touched.store(true, Ordering::Relaxed);
        self.ring.lock().slots.push(Arc::downgrade(&slot.0));
        self.maybe_evict();
    }

    /// The clock sweep: while over budget, advance the hand, giving
    /// touched slots a second chance, skipping borrowed ones, and paging
    /// out the first cold candidate. Bounded at two revolutions per call
    /// so a ring full of busy slots cannot spin.
    fn maybe_evict(&self) {
        if self.budget.load(Ordering::Relaxed) == u64::MAX {
            return;
        }
        let mut ring = self.ring.lock();
        let mut steps = 2 * ring.slots.len().max(1);
        while self.resident.load(Ordering::Relaxed) > self.budget.load(Ordering::Relaxed)
            && !ring.slots.is_empty()
            && steps > 0
        {
            steps -= 1;
            if ring.hand >= ring.slots.len() {
                ring.hand = 0;
            }
            let idx = ring.hand;
            let Some(inner) = ring.slots[idx].upgrade() else {
                // The slot died (its resident bytes were returned by Drop);
                // reap the entry without advancing past the swapped-in tail.
                ring.slots.swap_remove(idx);
                continue;
            };
            if inner.touched.swap(false, Ordering::Relaxed) {
                ring.hand += 1; // second chance
                continue;
            }
            let Some(mut guard) = inner.payload.try_write() else {
                ring.hand += 1; // someone is faulting/reading it right now
                continue;
            };
            let evicted = guard.take().is_some();
            drop(guard);
            ring.slots.swap_remove(idx);
            if evicted {
                self.resident
                    .fetch_sub(inner.meta.bytes as u64, Ordering::Relaxed);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// The process-wide segment cache.
pub fn segment_cache() -> &'static SegmentStore {
    static STORE: OnceLock<SegmentStore> = OnceLock::new();
    STORE.get_or_init(SegmentStore::new)
}

#[cfg(test)]
pub(crate) fn budget_guard() -> parking_lot::MutexGuard<'static, ()> {
    // Serializes tests that shrink the global budget so parallel tests
    // never observe each other's evictions.
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(())).lock()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoded::EncodedColumn;
    use crate::value::{Value, ValueType};

    fn column(n: i64, seg_rows: u64) -> EncodedColumn {
        let vals: Vec<Value> = (0..n).map(|i| Value::int(i / 16)).collect();
        EncodedColumn::from_values_with(ValueType::Int, &vals, seg_rows).unwrap()
    }

    fn slot_on_bytes(slot: &SegSlot) -> SegSlot {
        let enc = slot.enc();
        let mut raw = Vec::new();
        encode_payload(&enc, &mut raw);
        assert_eq!(raw.len(), payload_encoded_len(&enc));
        let len = raw.len() as u64;
        let source = Arc::new(PayloadSource::Bytes(Bytes::from(raw)));
        SegSlot::on_disk(
            slot.meta().clone(),
            DiskLoc {
                source,
                offset: 0,
                len,
            },
        )
    }

    #[test]
    fn fresh_slot_mirrors_its_payload_stats() {
        let col = column(100, 64);
        for slot in [
            col.segments()[0].clone(),
            col.segments()[0]
                .recoded_with(Encoding::Rle, &mut SealScratch::default())
                .unwrap(),
        ] {
            assert!(slot.is_resident());
            let (meta, found) = (slot.meta(), slot.enc().recount().unwrap());
            assert_eq!(meta, &found);
            assert_eq!(meta.choose_encoding(), found.choose_encoding());
            assert!(meta.contains_id(0));
            assert_eq!(meta.count_for(0), 16);
            assert_eq!(meta.count_for(9), 0);
            slot.check_invariants().unwrap();
        }
    }

    #[test]
    fn payload_round_trips_through_the_heap_format() {
        let col = column(200, 64);
        for slot in col.segments() {
            for s in [
                slot.clone(),
                slot.recoded_with(Encoding::Rle, &mut SealScratch::default())
                    .unwrap(),
            ] {
                let mut raw = Vec::new();
                encode_payload(&s.enc(), &mut raw);
                let back = decode_payload(s.meta(), &raw).unwrap();
                assert_eq!(back, s.enc());
            }
        }
    }

    #[test]
    fn corrupt_payload_is_rejected() {
        let col = column(100, 64);
        let slot = &col.segments()[0];
        let mut raw = Vec::new();
        encode_payload(&slot.enc(), &mut raw);
        // Truncation and bit flips both fail decode or the stat check.
        let cut = &raw[..raw.len() / 2];
        assert!(decode_payload(slot.meta(), cut).is_err());
        let mut flipped = raw.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0xFF;
        assert!(decode_payload(slot.meta(), &flipped).is_err());
    }

    #[test]
    fn paged_out_slot_faults_in_on_first_touch() {
        let _g = budget_guard();
        let col = column(100, 64);
        let enc = col.segments()[0].enc();
        let slot = slot_on_bytes(&col.segments()[0]);
        assert!(!slot.is_resident());
        // Metadata works without faulting.
        assert_eq!(slot.meta(), col.segments()[0].meta());
        assert!(!slot.is_resident(), "metadata access must not fault");
        let before = segment_cache().stats();
        assert_eq!(slot.enc(), enc);
        assert!(slot.is_resident());
        let after = segment_cache().stats();
        assert!(after.misses > before.misses);
        assert!(after.decoded_bytes >= before.decoded_bytes + slot.meta().bytes as u64);
        // Second touch is a hit.
        let _ = slot.enc();
        assert!(segment_cache().stats().hits > after.hits);
        slot.check_invariants().unwrap();
    }

    #[test]
    fn tiny_budget_forces_eviction_and_reload() {
        let _g = budget_guard();
        let store = segment_cache();
        let col = column(4096, 256);
        let slots: Vec<SegSlot> = col.segments().iter().map(slot_on_bytes).collect();
        let one = slots[0].meta().bytes as u64;
        store.set_budget(one); // room for about one segment
        for s in &slots {
            let _ = s.enc();
        }
        let resident = slots.iter().filter(|s| s.is_resident()).count();
        assert!(
            resident < slots.len(),
            "a tiny budget must page something out"
        );
        assert!(store.stats().evictions > 0);
        // Every slot still reloads to identical payload.
        for (s, orig) in slots.iter().zip(col.segments()) {
            assert_eq!(s.enc(), orig.enc());
        }
        store.set_budget(u64::MAX);
    }

    #[test]
    fn fresh_slots_survive_pressure() {
        let _g = budget_guard();
        let store = segment_cache();
        // Fresh slots (no disk location) have nowhere to reload from.
        let fresh = column(4096, 256).segments()[0].clone();
        store.set_budget(1);
        assert!(fresh.is_resident());
        store.set_budget(u64::MAX);
    }

    #[test]
    fn adopt_makes_a_fresh_slot_evictable() {
        let _g = budget_guard();
        let store = segment_cache();
        let col = column(512, 256);
        let slot = col.segments()[0].clone();
        let enc = slot.enc();
        let mut raw = Vec::new();
        encode_payload(&enc, &mut raw);
        let len = raw.len() as u64;
        let loc = DiskLoc {
            source: Arc::new(PayloadSource::Bytes(Bytes::from(raw))),
            offset: 0,
            len,
        };
        assert!(slot.attach_disk(loc.clone()), "first save attaches");
        store.adopt(&slot);
        assert!(!slot.attach_disk(loc), "second save is a no-op");
        store.set_budget(0);
        store.maybe_evict();
        assert!(!slot.is_resident(), "adopted slot pages out under pressure");
        assert_eq!(slot.enc(), enc, "and reloads from its new location");
        store.set_budget(u64::MAX);
    }

    #[test]
    fn out_of_bounds_read_is_an_error_not_a_panic() {
        let src = PayloadSource::Bytes(Bytes::from(vec![1u8, 2, 3]));
        assert!(src.read_at(2, 5).is_err());
        assert!(src.read_at(u64::MAX, 1).is_err());
        assert_eq!(src.read_at(1, 2).unwrap(), vec![2, 3]);
    }
}
