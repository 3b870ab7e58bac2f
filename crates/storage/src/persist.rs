//! Binary persistence of tables and catalogs.
//!
//! There is one on-disk format (version 8). A file is a heap of segment
//! payloads and per-table metadata blocks, a small index naming the blocks,
//! and a footer pointing at the index. A column opens as *metadata only* —
//! schema, dictionary, per-segment stats, zone maps, encoding/pin tags —
//! while segment payloads stay on disk and fault in through the buffer
//! cache ([`crate::store`]) on first touch:
//!
//! ```text
//! file     := preamble heap index footer
//! preamble := magic:u32 version:u16
//! heap     := (payload | block)*                   (below the index)
//! footer   := index_off:u64 magic:u32              (the last 12 bytes)
//! index    := entry                                (table file)
//! index    := version:u64 table_count:u32 entry*   (catalog file)
//! entry    := name:str block_off:u64 block_len:u64
//! block    := table                                (one table's metadata)
//! table    := name:str schema rows:u64 column*
//! schema   := arity:u16 (name:str tag:u8)* key_len:u16 key_idx:u16*
//! column   := dict flags:u8 seg_rows:u64 seg_count:u32 segment* zone*
//! dict     := tag:u8 dict_len:u32 value*
//! flags    := bit 0: whole column pinned by explicit recode
//! segment  := segtag:u8 off:u64 len:u64 rows:u64 runs:u64 bytes:u64
//!             present:u32 (id:u32)* (ones:u64)*
//! segtag   := bit 0: encoding (0 bitmap, 1 rle); bit 1: segment pinned
//! zone     := min_id:u32 max_id:u32                (one per segment)
//! value, str, schema                               ([`crate::codec`])
//! ```
//!
//! `off`/`len` locate a segment's payload in the heap (bitmap segments are
//! the concatenation of each present id's WAH stream in id order, RLE
//! segments the run-sequence codec); `rows`/`runs`/`bytes`/ids/ones are the
//! resident stats scans prune on without faulting. The heap stores each
//! distinct (`Arc`-shared) segment once, however many columns or table
//! versions reference it, and a decode re-shares slots with identical
//! locations. A block is self-contained: it decodes on its own and names
//! the table its entry names. Every block lies below the index, no two
//! overlap, and no two entries share a name.
//!
//! A catalog file's `version` is the [`Catalog::version`] of the content it
//! holds, written by every writer of a catalog file (append-save, rewrite,
//! vacuum) from the same snapshot as the tables. A catalog read back starts
//! at that version, and [`crate::commitlog::open_durable`] replays only the
//! commit records past it — the file says which commits it already covers.
//!
//! Saving onto a file that already backs some of the content is an
//! *append*, and it writes what changed. A table whose `Arc` is the one the
//! file's committed index was written from or decoded into keeps its block,
//! referenced by offset exactly like a reused payload; only the other
//! tables are encoded. The save overwrites `[cut, EOF)` under the rollback
//! journal ([`crate::wal`]), where `cut` is the end of the last extent that
//! must survive: a reused block, or a payload that a live in-memory slot
//! may still fault in from. From `cut` on it writes the new payloads, the
//! new blocks, the index and the footer. After any save, freshly built
//! segments adopt their new on-disk location and become evictable.
//!
//! A preamble carrying any other version is refused with
//! `PersistError("unsupported version N")`. Every field is read with the
//! one checked reader ([`crate::codec::Reader`]), so a count is held
//! against the bytes left before anything is sized from it, and any fault
//! of the bytes is a `PersistError`.

use crate::catalog::Catalog;
use crate::codec::{
    put_schema, put_str, put_value, read_schema, read_str, read_type, read_value, Reader,
};
use crate::dictionary::Dictionary;
use crate::encoded::{EncodedColumn, Encoding};
use crate::error::StorageError;
use crate::fault;
use crate::segment::Zone;
use crate::store::{
    encode_payload, file_id_of, payload_encoded_len, segment_cache, DiskLoc, FileId, PayloadSource,
    SegMeta, SegSlot,
};
use crate::table::Table;
use crate::vacuum::HeapStats;
use crate::value::ValueType;
use crate::wal;
use bytes::{BufMut, Bytes, BytesMut};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock, Weak};

const MAGIC: u32 = 0xC0D5_0001;
/// The on-disk format version (payload heap with one metadata block per
/// table behind a catalog index; catalog files stamped with the catalog
/// version they hold) — the only one this build reads or writes.
pub const VERSION: u16 = 8;

/// `magic:u32 version:u16`.
pub(crate) const PREAMBLE_LEN: usize = 6;
/// `index_off:u64 magic:u32`.
const FOOTER_LEN: usize = 12;
/// The least an index entry occupies: an empty name, `block_off`,
/// `block_len`.
const ENTRY_MIN: usize = 4 + 8 + 8;
/// The fixed part of a segment record: `segtag off len rows runs bytes
/// present` — the least a record can occupy.
const SEG_RECORD_MIN: usize = 1 + 5 * 8 + 4;

const ENC_BITMAP: u8 = 0;
const ENC_RLE: u8 = 1;
/// Column flag bit: whole column pinned by an explicit recode.
const FLAG_PINNED: u8 = 1;
/// Segment tag bit: this segment pinned by a segment-range recode.
const SEG_FLAG_PINNED: u8 = 2;

fn eof() -> StorageError {
    StorageError::PersistError("unexpected end of buffer".into())
}

fn put_dict<B: BufMut>(buf: &mut B, ty: ValueType, dict: &Dictionary) {
    buf.put_u8(ty.tag());
    buf.put_u32_le(dict.len() as u32);
    for v in dict.values() {
        put_value(buf, v);
    }
}

fn put_zones<B: BufMut>(buf: &mut B, zones: &[Zone]) {
    for z in zones {
        buf.put_u32_le(z.min_id);
        buf.put_u32_le(z.max_id);
    }
}

fn get_zones(r: &mut Reader<'_>, count: usize, dict_len: usize) -> Result<Vec<Zone>, StorageError> {
    let mut zones = Vec::with_capacity(count);
    for _ in 0..count {
        let min_id = r.u32()?;
        let max_id = r.u32()?;
        if min_id as usize >= dict_len || max_id as usize >= dict_len {
            return Err(StorageError::PersistError(format!(
                "zone ids ({min_id}, {max_id}) beyond dictionary of {dict_len}"
            )));
        }
        zones.push(Zone { min_id, max_id });
    }
    Ok(zones)
}

fn get_dict(r: &mut Reader<'_>) -> Result<(ValueType, Dictionary), StorageError> {
    let ty = read_type(r)?;
    // A value is at least its tag byte.
    let dict_len = r.count(1)?;
    let mut values = Vec::with_capacity(dict_len);
    for _ in 0..dict_len {
        values.push(read_value(r)?);
    }
    let dict = Dictionary::from_values(values).map_err(StorageError::PersistError)?;
    Ok((ty, dict))
}

// ---------------------------------------------------------------------------
// Writer: payload heap + metadata blocks + index + footer.
// ---------------------------------------------------------------------------

/// A slot whose payload the current save placed (or will place) in the
/// target file, with its heap location — the post-save adoption list.
type Placement = (SegSlot, u64, u64);

/// One table's metadata block in a file, with the payload extents its
/// segment records name.
#[derive(Clone, Debug)]
struct BlockAt {
    off: u64,
    len: u64,
    /// Distinct `(off, len)` payload extents, ascending.
    payloads: Arc<[(u64, u64)]>,
}

impl BlockAt {
    /// The end of the furthest byte this block keeps alive: its own, or
    /// that of a payload it names.
    fn reach(&self) -> u64 {
        self.payloads
            .iter()
            .map(|&(off, len)| off + len)
            .fold(self.off + self.len, u64::max)
    }
}

/// `extents` without repeats, ascending.
fn distinct(mut extents: Vec<(u64, u64)>) -> Arc<[(u64, u64)]> {
    extents.sort_unstable();
    extents.dedup();
    extents.into()
}

/// The end of the furthest payload any of `blocks` names.
fn payload_end<'b>(blocks: impl IntoIterator<Item = &'b BlockAt>) -> u64 {
    blocks
        .into_iter()
        .flat_map(|b| b.payloads.iter())
        .map(|&(off, len)| off + len)
        .max()
        .unwrap_or(0)
}

/// Accumulates the payload heap of one save: each distinct slot's payload
/// is placed exactly once (keyed by slot identity), and on an append-save
/// slots already backed by the target file keep their existing offsets
/// without being read at all.
struct HeapBuilder<'a> {
    buf: BytesMut,
    /// Absolute file offset of the next placed payload.
    next: u64,
    placed: HashMap<usize, (u64, u64)>,
    /// Canonical path of the append target; slots whose payload source is
    /// this file are reused in place.
    reuse: Option<&'a Path>,
    /// Inode identity of the append target. A slot whose source path
    /// matches but whose handle is bound to a *different* inode (the file
    /// was vacuumed/replaced since that slot was opened) must not donate
    /// its stale offsets — it gets copied like any foreign payload.
    reuse_id: Option<FileId>,
    /// Extents handed out since the last block was finished: the payloads
    /// of the block being encoded.
    extents: Vec<(u64, u64)>,
    placements: Vec<Placement>,
}

impl<'a> HeapBuilder<'a> {
    fn new(base: u64, reuse: Option<&'a Path>, reuse_id: Option<FileId>) -> HeapBuilder<'a> {
        HeapBuilder {
            buf: BytesMut::new(),
            next: base,
            placed: HashMap::new(),
            reuse,
            reuse_id,
            extents: Vec::new(),
            placements: Vec::new(),
        }
    }

    /// Returns the heap location of `slot`'s payload, placing it on first
    /// sight. Disk-backed slots are raw-copied from their source without
    /// decoding; fresh slots are encoded from their resident payload.
    fn place(&mut self, slot: &SegSlot) -> Result<(u64, u64), StorageError> {
        let at = self.locate(slot)?;
        self.extents.push(at);
        Ok(at)
    }

    fn locate(&mut self, slot: &SegSlot) -> Result<(u64, u64), StorageError> {
        if let Some(loc) = slot.disk_loc() {
            if self.reuse.is_some()
                && loc.source.path() == self.reuse
                && (self.reuse_id.is_none() || loc.source.file_id() == self.reuse_id)
            {
                return Ok((loc.offset, loc.len));
            }
        }
        if let Some(&at) = self.placed.get(&slot.ident()) {
            return Ok(at);
        }
        let raw = match slot.disk_loc() {
            Some(loc) => loc.source.read_at(loc.offset, loc.len)?,
            None => {
                let enc = slot.try_enc()?;
                let mut v = Vec::with_capacity(payload_encoded_len(&enc));
                encode_payload(&enc, &mut v);
                v
            }
        };
        let at = (self.next, raw.len() as u64);
        self.buf.put_slice(&raw);
        self.next += at.1;
        self.placed.insert(slot.ident(), at);
        self.placements.push((slot.clone(), at.0, at.1));
        Ok(at)
    }
}

/// Writes one column's metadata record, placing its payloads in the heap.
fn put_column<B: BufMut>(
    meta: &mut B,
    heap: &mut HeapBuilder<'_>,
    c: &EncodedColumn,
) -> Result<(), StorageError> {
    put_dict(meta, c.ty(), c.dict());
    let flags = if c.encoding_pinned() { FLAG_PINNED } else { 0 };
    meta.put_u8(flags);
    meta.put_u64_le(c.nominal_segment_rows());
    meta.put_u32_le(c.segment_count() as u32);
    for (i, slot) in c.segments().iter().enumerate() {
        let (off, len) = heap.place(slot)?;
        let m = slot.meta();
        let mut tag = match m.encoding {
            Encoding::Bitmap => ENC_BITMAP,
            Encoding::Rle => ENC_RLE,
        };
        // Bit 1 records the *segment-range* pin only; the whole-column pin
        // lives in the column flags byte, so the two survive independently.
        if c.segment_pin_raw(i) {
            tag |= SEG_FLAG_PINNED;
        }
        meta.put_u8(tag);
        meta.put_u64_le(off);
        meta.put_u64_le(len);
        meta.put_u64_le(m.rows);
        meta.put_u64_le(m.runs);
        meta.put_u64_le(m.bytes as u64);
        meta.put_u32_le(m.distinct_count() as u32);
        for &id in m.present_ids.iter() {
            meta.put_u32_le(id);
        }
        for &n in m.ones.iter() {
            meta.put_u64_le(n);
        }
    }
    put_zones(meta, c.zones());
    Ok(())
}

fn put_table<B: BufMut>(
    meta: &mut B,
    heap: &mut HeapBuilder<'_>,
    t: &Table,
) -> Result<(), StorageError> {
    put_str(meta, t.name());
    put_schema(meta, t.schema());
    meta.put_u64_le(t.rows());
    for c in t.columns() {
        put_column(meta, heap, c)?;
    }
    Ok(())
}

fn put_entry<B: BufMut>(index: &mut B, name: &str, block: &BlockAt) {
    put_str(index, name);
    index.put_u64_le(block.off);
    index.put_u64_le(block.len);
}

/// What a save writes: one table, or a catalog snapshot.
pub(crate) enum Content<'a> {
    /// A single-table file.
    Table(&'a Table),
    /// A catalog file: the catalog version and the tables it holds at
    /// that version, taken in one step ([`Catalog::begin_evolution`]).
    Catalog(u64, Vec<Arc<Table>>),
}

impl Content<'_> {
    /// One consistent `(version, tables)` snapshot of `cat`.
    pub(crate) fn of_catalog(cat: &Catalog) -> Content<'static> {
        let (version, tables) = cat.begin_evolution();
        Content::Catalog(version, tables.into_values().collect())
    }

    fn tables(&self) -> Vec<&Table> {
        match self {
            Content::Table(t) => vec![t],
            Content::Catalog(_, ts) => ts.iter().map(|t| t.as_ref()).collect(),
        }
    }

    /// An owning copy (cheap: tables share their columns by `Arc`) for the
    /// background vacuum, which outlives the borrow a save holds.
    pub(crate) fn to_owned_content(&self) -> OwnedContent {
        match self {
            Content::Table(t) => OwnedContent::Table((*t).clone()),
            Content::Catalog(v, ts) => OwnedContent::Catalog(*v, ts.clone()),
        }
    }
}

/// An owning [`Content`] — what a background vacuum task carries across
/// threads.
pub(crate) enum OwnedContent {
    /// A single-table file.
    Table(Table),
    /// A catalog file.
    Catalog(u64, Vec<Arc<Table>>),
}

impl OwnedContent {
    /// Borrows back as a [`Content`] for the writer paths.
    pub(crate) fn as_content(&self) -> Content<'_> {
        match self {
            OwnedContent::Table(t) => Content::Table(t),
            OwnedContent::Catalog(v, ts) => Content::Catalog(*v, ts.clone()),
        }
    }
}

/// The product of [`build`]: the bytes to write, the adoption list, and
/// where every block, the index and the end of file landed.
struct Built {
    bytes: Bytes,
    placements: Vec<Placement>,
    /// Every table's block, in content order.
    blocks: Vec<BlockAt>,
    /// The index as written (without the footer).
    index: Bytes,
    index_off: u64,
    file_len: u64,
}

/// Serializes `what`. Without a plan this is a complete image: it opens
/// with the preamble and payloads start at [`PREAMBLE_LEN`]. With one it is
/// the tail of an append-save, everything from the plan's `cut` to the new
/// end of file: the payloads not already in the target, the blocks of the
/// tables the plan does not reuse, the index and the footer.
fn build(what: &Content<'_>, plan: Option<&AppendPlan>) -> Result<Built, StorageError> {
    let base = plan.map_or(PREAMBLE_LEN as u64, |p| p.cut);
    let mut heap = HeapBuilder::new(
        base,
        plan.map(|p| p.canon.as_path()),
        plan.and_then(|p| p.id),
    );
    // New blocks are encoded as their tables come, but land after every
    // new payload: their offsets are relative to `fresh` until the heap is
    // complete.
    let mut fresh = BytesMut::new();
    let mut blocks = Vec::new();
    let mut new = Vec::new();
    for t in what.tables() {
        if let Some(b) = plan.and_then(|p| p.reuse.get(&(t as *const Table))) {
            blocks.push(b.clone());
            continue;
        }
        let start = fresh.len();
        put_table(&mut fresh, &mut heap, t)?;
        new.push(blocks.len());
        blocks.push(BlockAt {
            off: start as u64,
            len: (fresh.len() - start) as u64,
            payloads: distinct(std::mem::take(&mut heap.extents)),
        });
    }
    let blocks_off = heap.next;
    for &i in &new {
        blocks[i].off += blocks_off;
    }
    let index_off = blocks_off + fresh.len() as u64;
    let mut index = BytesMut::new();
    match what {
        Content::Table(t) => put_entry(&mut index, t.name(), &blocks[0]),
        Content::Catalog(version, ts) => {
            index.put_u64_le(*version);
            index.put_u32_le(ts.len() as u32);
            for (t, b) in ts.iter().zip(&blocks) {
                put_entry(&mut index, t.name(), b);
            }
        }
    }
    let index = index.freeze();
    let HeapBuilder {
        buf, placements, ..
    } = heap;
    let mut out = BytesMut::new();
    if plan.is_none() {
        out.put_u32_le(MAGIC);
        out.put_u16_le(VERSION);
    }
    out.put_slice(buf.freeze().as_slice());
    out.put_slice(fresh.freeze().as_slice());
    out.put_slice(index.as_slice());
    out.put_u64_le(index_off);
    out.put_u32_le(MAGIC);
    Ok(Built {
        bytes: out.freeze(),
        placements,
        blocks,
        file_len: index_off + (index.len() + FOOTER_LEN) as u64,
        index,
        index_off,
    })
}

/// Where an append-save lands: the target, the offset from which its tail
/// is overwritten, and the committed blocks the new index references as
/// they are (keyed by the table they hold).
struct AppendPlan {
    canon: PathBuf,
    id: Option<FileId>,
    cut: u64,
    reuse: HashMap<*const Table, BlockAt>,
}

/// Decides whether saving `what` onto `path` can append: the target must
/// be a healthy container that already holds one of the content's blocks
/// or backs one of its segments. Any doubt falls back to a full rewrite.
///
/// The overwritten tail starts at `cut`, the end of the last extent that
/// must survive: a block the new index reuses (with the payloads it names,
/// taken from the committed index — a reused table's slots may live in
/// another file), and every extent a live slot is bound to in this file
/// (the new state's reused payloads among them, and those of older
/// snapshots still in memory). Without a file identity nothing is known,
/// and the tail starts at the committed index.
fn append_plan(what: &Content<'_>, path: &Path) -> Option<AppendPlan> {
    let canon = std::fs::canonicalize(path).ok()?;
    // Identity of the inode currently at the path: a slot opened before a
    // vacuum replaced the file holds offsets into the *old* inode, and
    // must not be treated as already-present in the new one.
    let id = std::fs::metadata(&canon).ok().and_then(|m| file_id_of(&m));
    let tail = read_tail(&mut std::fs::File::open(path).ok()?, path).ok()?;
    let reuse = match (what, id) {
        (Content::Catalog(_, tables), Some(id)) => reusable(id, &tail, tables),
        _ => HashMap::new(),
    };
    let backed = || {
        what.tables().iter().any(|t| {
            t.columns().iter().any(|c| {
                c.segments().iter().any(|s| {
                    s.disk_loc().is_some_and(|l| {
                        l.source.path() == Some(canon.as_path())
                            && (id.is_none() || l.source.file_id() == id)
                    })
                })
            })
        })
    };
    if reuse.is_empty() && !backed() {
        return None;
    }
    let cut = match id {
        Some(id) => reuse
            .values()
            .map(BlockAt::reach)
            .fold(bound_end(id), u64::max)
            .clamp(PREAMBLE_LEN as u64, tail.index_off),
        None => tail.index_off,
    };
    Some(AppendPlan {
        canon,
        id,
        cut,
        reuse,
    })
}

/// After a committed write of `built` to `path`: points every placed slot
/// at its location through `bind` and enrols the newly backed ones in the
/// buffer cache (making them evictable), then records what the file now
/// holds. A save binds with [`SegSlot::attach_disk`] — slots already backed
/// elsewhere keep their original source; vacuum with
/// [`SegSlot::rebind_disk`] — offsets moved, so existing `DiskLoc`s are
/// overwritten.
fn settle(
    path: &Path,
    what: &Content<'_>,
    built: Built,
    bind: fn(&SegSlot, DiskLoc) -> bool,
) -> Result<(), StorageError> {
    let file = std::fs::File::open(path)?;
    let canon = std::fs::canonicalize(path)?;
    let source = Arc::new(PayloadSource::for_file(file, canon));
    let store = segment_cache();
    let mut end = 0;
    for (slot, offset, len) in built.placements {
        end = end.max(offset + len);
        let loc = DiskLoc {
            source: Arc::clone(&source),
            offset,
            len,
        };
        if bind(&slot, loc) {
            store.adopt(&slot);
        }
    }
    note_source(&source, end);
    if let (Some(id), Content::Catalog(_, tables)) = (source.file_id(), what) {
        note_committed(
            id,
            Committed {
                file_len: built.file_len,
                index_off: built.index_off,
                index: built.index,
                blocks: tables
                    .iter()
                    .map(Arc::downgrade)
                    .zip(built.blocks)
                    .collect(),
            },
        );
    }
    Ok(())
}

/// Durable whole-file replacement: the image is written to a sibling temp
/// file, synced, and atomically renamed over the target — the rename is
/// the commit point, so a crash leaves either the old file or the new one,
/// never a half-written hybrid. The directory is synced after the rename,
/// so the new name survives a power cut too.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), StorageError> {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".tmp.{}", std::process::id()));
    let tmp = path.with_file_name(name);
    let res = (|| -> Result<(), StorageError> {
        let mut f = fault::create(&tmp)?;
        fault::write_all(&mut f, bytes)?;
        fault::sync(&f)?;
        drop(f);
        fault::rename(&tmp, path)?;
        fault::sync_dir(path)?;
        Ok(())
    })();
    if res.is_err() {
        // Best-effort cleanup; under a simulated crash this fails too (as
        // it would for real) and the stale temp file is simply re-created
        // by the next save.
        let _ = fault::remove_file(&tmp);
    }
    res
}

/// In-place tail overwrite under a rollback journal (the append-save
/// commit protocol; see [`crate::wal`]). Returns the heap occupancy it
/// committed and its index offset, for the auto-vacuum trigger.
fn save_append(
    what: &Content<'_>,
    path: &Path,
    plan: AppendPlan,
) -> Result<(HeapStats, u64), StorageError> {
    let built = build(what, Some(&plan))?;
    // 1. Journal the old tail `[cut, EOF)` durably — before the target is
    //    touched.
    let guard = wal::TailGuard::begin(path, plan.cut)?;
    // 2. Overwrite the tail and sync.
    let write = (|| -> Result<(), StorageError> {
        use std::io::{Seek, SeekFrom};
        let mut f = fault::open_rw(path)?;
        f.seek(SeekFrom::Start(plan.cut))?;
        fault::write_all(&mut f, built.bytes.as_slice())?;
        fault::set_len(&f, built.file_len)?;
        fault::sync(&f)?;
        Ok(())
    })();
    if let Err(e) = write {
        guard.abort(); // roll back in-process; or at next open if we "died"
        return Err(e);
    }
    // 3. Commit point: delete the journal. If even this fails, the next
    //    open rolls back to the old catalog — so adoption must not happen.
    guard.commit()?;
    // 4. Only now — the file is fully committed — may fresh slots adopt
    //    their on-disk locations.
    let stats = heap_stats_of(built.file_len, built.index_off, &built.blocks);
    let index_off = built.index_off;
    settle(path, what, built, SegSlot::attach_disk)?;
    Ok((stats, index_off))
}

/// Full-rewrite save: a fresh image through [`write_atomic`].
fn save_rewrite(what: &Content<'_>, path: &Path) -> Result<(), StorageError> {
    let built = build(what, None)?;
    write_atomic(path, built.bytes.as_slice())?;
    settle(path, what, built, SegSlot::attach_disk)
}

pub(crate) fn save_content(what: &Content<'_>, path: &Path) -> Result<(), StorageError> {
    let lock = wal::path_lock(path);
    let appended = {
        let _guard = lock.lock().unwrap_or_else(|e| e.into_inner());
        // A previous save may have died here: honor its journal first, so
        // `append_plan` sees the last committed footer.
        if path.exists() {
            wal::recover(path)?;
        }
        match append_plan(what, path) {
            Some(plan) => Some(save_append(what, path, plan)?),
            None => {
                save_rewrite(what, path)?;
                None
            }
        }
    };
    // Outside the lock: the background vacuum takes it itself.
    if let Some((stats, index_off)) = appended {
        crate::vacuum::consider_auto(what, path, &stats, index_off);
    }
    Ok(())
}

/// Compacts `what` into a fresh heap at `path` via [`write_atomic`], then
/// *rebinds* every live slot to its location in the compacted file (the
/// vacuum path — offsets move, so this overwrites existing `DiskLoc`s
/// rather than attach-once). The caller must hold the file's
/// [`wal::path_lock`]. Returns `(before_bytes, after_bytes,
/// live_payload_bytes, segments)`.
pub(crate) fn rewrite_compacted(
    what: &Content<'_>,
    path: &Path,
) -> Result<(u64, u64, u64, usize), StorageError> {
    if path.exists() {
        wal::recover(path)?;
    }
    let before = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    let built = build(what, None)?;
    let after = built.file_len;
    write_atomic(path, built.bytes.as_slice())?;
    // Rebind: every distinct slot was placed, so every live payload now
    // points into the compacted file. Slots opened from the *old* inode by
    // other snapshots keep their open handle (the unlinked inode stays
    // readable on unix) and fall back to copy-on-save thanks to the
    // file-identity check in `append_plan`/`HeapBuilder::place`.
    let segments = built.placements.len();
    let live = built.placements.iter().map(|&(_, _, len)| len).sum();
    settle(path, what, built, SegSlot::rebind_disk)?;
    Ok((before, after, live, segments))
}

/// The one footer parser — the save path, vacuum, the in-memory decode and
/// the lazy file open all locate the index through it. Checks the preamble
/// (magic, version), then the last [`FOOTER_LEN`] bytes: tail magic, and
/// `index_off` within `[PREAMBLE_LEN, len - FOOTER_LEN]`. Reads nothing
/// else. Returns `(len, index_off)`.
///
/// `path` names a file-backed source: a footer that fails to validate is
/// then the typed [`torn_tail`] corruption with its recovery hint, where an
/// in-memory image gets a plain `PersistError`.
fn read_footer<R: std::io::Read + std::io::Seek>(
    src: &mut R,
    path: Option<&Path>,
) -> Result<(u64, u64), StorageError> {
    use std::io::SeekFrom;
    let bad = |detail: String| match path {
        Some(p) => torn_tail(p, detail),
        None => StorageError::PersistError(detail),
    };
    let mut head = [0u8; PREAMBLE_LEN];
    src.read_exact(&mut head).map_err(|_| eof())?;
    let mut head = Reader::new(&head);
    let magic = head.u32()?;
    if magic != MAGIC {
        return Err(StorageError::PersistError(format!(
            "bad magic 0x{magic:08x}"
        )));
    }
    let version = head.u16()?;
    if version != VERSION {
        return Err(StorageError::PersistError(format!(
            "unsupported version {version}"
        )));
    }
    let len = src.seek(SeekFrom::End(0))?;
    if len < (PREAMBLE_LEN + FOOTER_LEN) as u64 {
        return Err(bad(format!("file is only {len} bytes")));
    }
    src.seek(SeekFrom::Start(len - FOOTER_LEN as u64))?;
    let mut foot = [0u8; FOOTER_LEN];
    src.read_exact(&mut foot)?;
    let mut foot = Reader::new(&foot);
    let index_off = foot.u64()?;
    let tail_magic = foot.u32()?;
    if tail_magic != MAGIC {
        return Err(bad(format!("bad footer magic 0x{tail_magic:08x}")));
    }
    if index_off < PREAMBLE_LEN as u64 || index_off > len - FOOTER_LEN as u64 {
        return Err(bad(format!(
            "footer index offset {index_off} outside file of {len} bytes"
        )));
    }
    Ok((len, index_off))
}

/// [`read_footer`] of the file at `path`, without decoding anything else.
pub(crate) fn file_footer(path: &Path) -> Result<(u64, u64), StorageError> {
    read_footer(&mut std::fs::File::open(path)?, Some(path))
}

/// The typed corruption error for a file whose footer does not validate:
/// an interrupted save tore the tail and no rollback journal survives to
/// repair it. Carries a recovery hint.
fn torn_tail(path: &Path, detail: String) -> StorageError {
    StorageError::Corrupt(format!(
        "{}: torn tail ({detail}); an interrupted save corrupted the footer and \
         no rollback journal ({}) is present to roll it back — restore the file \
         from a copy or re-create it with a fresh save",
        path.display(),
        wal::wal_path(path).display(),
    ))
}

/// A container's footer and index: all a save or an open reads up front.
struct Tail {
    file_len: u64,
    index_off: u64,
    /// The index bytes, footer excluded.
    index: Bytes,
}

/// Reads the footer and the index of `file` (at `path`), nothing else.
fn read_tail(file: &mut std::fs::File, path: &Path) -> Result<Tail, StorageError> {
    use std::io::{Read, Seek, SeekFrom};
    let (file_len, index_off) = read_footer(file, Some(path))?;
    file.seek(SeekFrom::Start(index_off))?;
    let mut index = vec![0u8; (file_len - FOOTER_LEN as u64 - index_off) as usize];
    file.read_exact(&mut index)?;
    Ok(Tail {
        file_len,
        index_off,
        index: Bytes::from(index),
    })
}

// ---------------------------------------------------------------------------
// What this process knows about the files it wrote or read.
// ---------------------------------------------------------------------------

/// A catalog file's committed index, as this process wrote or decoded it.
struct Committed {
    /// The file's length, index offset and index bytes at the time: the
    /// blocks are trusted only while the file still ends in exactly these.
    file_len: u64,
    index_off: u64,
    index: Bytes,
    /// Each block, with the table it was written from or decoded into.
    blocks: Vec<(Weak<Table>, BlockAt)>,
}

/// What this process knows about one file, by inode.
#[derive(Default)]
struct Known {
    committed: Option<Committed>,
    /// Every payload source bound to the file, with the end of the
    /// furthest extent bound through it. While a source lives, a slot may
    /// still fault in below that end, so no save may overwrite it.
    sources: Vec<(Weak<PayloadSource>, u64)>,
}

impl Known {
    /// Forgets what no live table or slot can use; `false` when nothing is
    /// left to know.
    fn prune(&mut self) -> bool {
        self.sources.retain(|(s, _)| s.strong_count() > 0);
        if self
            .committed
            .as_ref()
            .is_some_and(|c| c.blocks.iter().all(|(t, _)| t.strong_count() == 0))
        {
            self.committed = None;
        }
        self.committed.is_some() || !self.sources.is_empty()
    }
}

/// Runs `f` on the pruned registry of known files.
fn with_known<R>(f: impl FnOnce(&mut HashMap<FileId, Known>) -> R) -> R {
    static KNOWN: OnceLock<Mutex<HashMap<FileId, Known>>> = OnceLock::new();
    let mut known = KNOWN
        .get_or_init(Default::default)
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    known.retain(|_, k| k.prune());
    f(&mut known)
}

/// Records that slots bound through `source` reach up to `end`.
fn note_source(source: &Arc<PayloadSource>, end: u64) {
    if let Some(id) = source.file_id() {
        with_known(|k| {
            k.entry(id)
                .or_default()
                .sources
                .push((Arc::downgrade(source), end))
        });
    }
}

fn note_committed(id: FileId, committed: Committed) {
    with_known(|k| k.entry(id).or_default().committed = Some(committed));
}

/// The end of the furthest extent a live slot may fault in from in file
/// `id`.
fn bound_end(id: FileId) -> u64 {
    with_known(|k| {
        k.get(&id)
            .and_then(|k| k.sources.iter().map(|&(_, end)| end).max())
            .unwrap_or(0)
    })
}

/// The committed blocks of file `id` that `tables` can reference as they
/// are, keyed by table — none unless the file still ends in the index they
/// were recorded with.
fn reusable(id: FileId, tail: &Tail, tables: &[Arc<Table>]) -> HashMap<*const Table, BlockAt> {
    with_known(|k| {
        let Some(c) = k.get(&id).and_then(|k| k.committed.as_ref()) else {
            return HashMap::new();
        };
        if (c.file_len, c.index_off) != (tail.file_len, tail.index_off)
            || c.index.as_slice() != tail.index.as_slice()
        {
            return HashMap::new();
        }
        let by_table: HashMap<*const Table, &BlockAt> =
            c.blocks.iter().map(|(t, b)| (t.as_ptr(), b)).collect();
        tables
            .iter()
            .filter_map(|t| {
                let at = Arc::as_ptr(t);
                by_table.get(&at).map(|&b| (at, b.clone()))
            })
            .collect()
    })
}

/// How a file of `file_len` bytes whose index starts at `index_off` and
/// names `blocks` divides up (see [`HeapStats`]).
fn heap_stats_of(file_len: u64, index_off: u64, blocks: &[BlockAt]) -> HeapStats {
    let extents: HashSet<(u64, u64)> = blocks
        .iter()
        .flat_map(|b| b.payloads.iter().copied())
        .collect();
    let live_blocks: u64 = blocks.iter().map(|b| b.len).sum();
    let heap_bytes = (index_off - PREAMBLE_LEN as u64).saturating_sub(live_blocks);
    let live_bytes = extents.iter().map(|&(_, len)| len).sum();
    HeapStats {
        file_bytes: file_len,
        heap_bytes,
        meta_bytes: file_len - index_off + live_blocks,
        live_bytes,
        dead_bytes: heap_bytes.saturating_sub(live_bytes),
        live_segments: extents.len(),
    }
}

// ---------------------------------------------------------------------------
// Reader: index, blocks, paged-out slots.
// ---------------------------------------------------------------------------

/// Slots decoded so far in this file, keyed by heap location — records
/// with identical locations (columns shared across catalog tables) come
/// back `Arc`-shared, so a cached payload keeps serving every snapshot.
type SlotDedup = HashMap<(u64, u64), SegSlot>;

/// Reads one segment's metadata record into a paged-out slot, noting its
/// payload extent in `extents`.
fn get_seg_slot(
    r: &mut Reader<'_>,
    dict_len: usize,
    source: &Arc<PayloadSource>,
    heap_end: u64,
    dedup: &mut SlotDedup,
    extents: &mut Vec<(u64, u64)>,
) -> Result<(SegSlot, bool), StorageError> {
    let corrupt = |m: String| StorageError::PersistError(m);
    let tag = r.u8()?;
    if tag & !(ENC_RLE | SEG_FLAG_PINNED) != 0 {
        return Err(corrupt(format!("unknown segment tag {tag:#04x}")));
    }
    let pinned = tag & SEG_FLAG_PINNED != 0;
    let encoding = if tag & ENC_RLE != 0 {
        Encoding::Rle
    } else {
        Encoding::Bitmap
    };
    let off = r.u64()?;
    let len = r.u64()?;
    let rows = r.u64()?;
    let runs = r.u64()?;
    let bytes = r.u64()?;
    // An id and its row count per present value.
    let present = r.count(4 + 8)?;
    let end = off
        .checked_add(len)
        .ok_or_else(|| corrupt("segment payload offset overflows".into()))?;
    if off < PREAMBLE_LEN as u64 || len == 0 || end > heap_end {
        return Err(corrupt(format!(
            "segment payload [{off}, {end}) outside the heap [{}, {heap_end})",
            PREAMBLE_LEN
        )));
    }
    if rows == 0 {
        return Err(corrupt("empty segment".into()));
    }
    if runs == 0 || runs > rows {
        return Err(corrupt(format!(
            "segment of {rows} rows claims {runs} runs"
        )));
    }
    if present == 0 {
        return Err(corrupt(format!(
            "segment of {rows} rows with no present values"
        )));
    }
    let mut ids = Vec::with_capacity(present);
    for _ in 0..present {
        let id = r.u32()?;
        if id as usize >= dict_len {
            return Err(corrupt(format!(
                "segment id {id} beyond dictionary of {dict_len}"
            )));
        }
        ids.push(id);
    }
    let ones: Vec<u64> = (0..present).map(|_| r.u64()).collect::<Result<_, _>>()?;
    let meta = SegMeta {
        rows,
        present_ids: ids.into(),
        ones: ones.into(),
        runs,
        bytes: usize::try_from(bytes)
            .map_err(|_| corrupt("segment byte size beyond address space".into()))?,
        encoding,
    };
    meta.check().map_err(corrupt)?;
    extents.push((off, len));
    if let Some(shared) = dedup.get(&(off, len)) {
        // A previously decoded record (a column shared across catalog
        // tables) already owns this payload; the stats must agree.
        if *shared.meta() != meta {
            return Err(corrupt(
                "records share a payload but disagree on its stats".into(),
            ));
        }
        if pinned {
            shared.set_pinned(true);
        }
        return Ok((shared.clone(), pinned));
    }
    let loc = DiskLoc {
        source: Arc::clone(source),
        offset: off,
        len,
    };
    let slot = SegSlot::on_disk(meta, loc, pinned);
    dedup.insert((off, len), slot.clone());
    Ok((slot, pinned))
}

fn get_column(
    r: &mut Reader<'_>,
    source: &Arc<PayloadSource>,
    heap_end: u64,
    dedup: &mut SlotDedup,
    extents: &mut Vec<(u64, u64)>,
) -> Result<EncodedColumn, StorageError> {
    let (ty, dict) = get_dict(r)?;
    let flags = r.u8()?;
    let seg_rows = r.u64()?;
    if seg_rows == 0 {
        return Err(StorageError::PersistError(
            "zero nominal segment size".into(),
        ));
    }
    let seg_count = r.count(SEG_RECORD_MIN)?;
    let dict_len = dict.len();
    let mut slots = Vec::with_capacity(seg_count);
    let mut pins = Vec::with_capacity(seg_count);
    for _ in 0..seg_count {
        let (slot, pin) = get_seg_slot(r, dict_len, source, heap_end, dedup, extents)?;
        pins.push(pin);
        slots.push(slot);
    }
    let zones = get_zones(r, seg_count, dict_len)?;
    let mut col = EncodedColumn::from_slots_zoned(ty, dict, slots, zones, seg_rows);
    col.set_segment_pins(pins);
    col.set_encoding_pinned(flags & FLAG_PINNED != 0);
    Ok(col)
}

/// Decodes one table's block; its columns come back paged out. Runs the
/// metadata tier of the invariants only — payloads are validated against
/// their stats as they fault in.
fn get_table(
    r: &mut Reader<'_>,
    source: &Arc<PayloadSource>,
    heap_end: u64,
    dedup: &mut SlotDedup,
    extents: &mut Vec<(u64, u64)>,
) -> Result<Table, StorageError> {
    let name = read_str(r)?.to_owned();
    let schema = read_schema(r)?;
    let rows = r.u64()?;
    let mut columns = Vec::with_capacity(schema.arity());
    for _ in 0..schema.arity() {
        let col = get_column(r, source, heap_end, dedup, extents)?;
        if col.rows() != rows {
            return Err(StorageError::PersistError(format!(
                "column covers {} rows, table claims {rows}",
                col.rows()
            )));
        }
        col.check_meta_invariants()?;
        columns.push(Arc::new(col));
    }
    Table::new(name, schema, columns)
}

/// One index entry: a table's name and its block's extent.
type Entry = (String, u64, u64);

/// Reads and validates an index. Every count is bounded by the bytes left
/// before anything is sized from it; every block must lie inside
/// `[PREAMBLE_LEN, index_off)`, no two may overlap, no name may repeat and
/// nothing may follow the last entry. Returns the catalog version (0 for a
/// table file) and the entries in index order.
fn get_index(
    index: &[u8],
    catalog: bool,
    index_off: u64,
) -> Result<(u64, Vec<Entry>), StorageError> {
    let bad = |m: String| StorageError::PersistError(m);
    let mut r = Reader::new(index);
    let (version, count) = if catalog {
        (r.u64()?, r.count(ENTRY_MIN)?)
    } else {
        (0, 1)
    };
    let mut entries: Vec<Entry> = Vec::with_capacity(count);
    let mut names = HashSet::with_capacity(count);
    for _ in 0..count {
        let name = read_str(&mut r)?.to_owned();
        let (off, len) = (r.u64()?, r.u64()?);
        if off < PREAMBLE_LEN as u64
            || len == 0
            || off.checked_add(len).is_none_or(|end| end > index_off)
        {
            return Err(bad(format!(
                "the block of `{name}` at {off} (+{len}) is outside the heap [{PREAMBLE_LEN}, {index_off})"
            )));
        }
        if !names.insert(name.clone()) {
            return Err(bad(format!("the index names `{name}` twice")));
        }
        entries.push((name, off, len));
    }
    r.finish()
        .map_err(|_| bad("trailing bytes after the index".into()))?;
    let mut spans: Vec<(u64, u64)> = entries
        .iter()
        .map(|&(_, off, len)| (off, off + len))
        .collect();
    spans.sort_unstable();
    if let Some(w) = spans.windows(2).find(|w| w[0].1 > w[1].0) {
        return Err(bad(format!(
            "blocks [{}, {}) and [{}, {}) overlap",
            w[0].0, w[0].1, w[1].0, w[1].1
        )));
    }
    Ok((version, entries))
}

/// An opened container: its footer and index (all read so far), and the
/// source its blocks and payloads are read from.
struct Opened {
    tail: Tail,
    source: Arc<PayloadSource>,
}

impl Opened {
    /// Opens an in-memory image; blocks and payloads come from `buf`.
    fn image(buf: Bytes) -> Result<Opened, StorageError> {
        let (file_len, index_off) = read_footer(&mut std::io::Cursor::new(buf.as_slice()), None)?;
        let index = buf.slice(index_off as usize..file_len as usize - FOOTER_LEN);
        Ok(Opened {
            tail: Tail {
                file_len,
                index_off,
                index,
            },
            source: Arc::new(PayloadSource::Bytes(buf)),
        })
    }

    /// Opens `path`, reading *only* the preamble, footer and index — the
    /// blocks are read by [`Opened::decode`], the payloads never.
    fn file(path: &Path) -> Result<Opened, StorageError> {
        let mut file = std::fs::File::open(path)?;
        let tail = read_tail(&mut file, path)?;
        let canon = std::fs::canonicalize(path)?;
        Ok(Opened {
            tail,
            source: Arc::new(PayloadSource::for_file(file, canon)),
        })
    }

    /// Decodes every block the index names, in index order: the catalog
    /// version (0 for a table file) and each table with its block. Records
    /// with identical heap locations come back as one shared slot, so
    /// columns shared across tables stay shared — and cached once.
    fn decode(&self, catalog: bool) -> Result<(u64, Vec<(Table, BlockAt)>), StorageError> {
        let (version, entries) = get_index(&self.tail.index, catalog, self.tail.index_off)?;
        let mut dedup = SlotDedup::new();
        let mut tables = Vec::with_capacity(entries.len());
        for (name, off, len) in entries {
            let block = self.source.read_at(off, len)?;
            let mut r = Reader::new(&block);
            let mut extents = Vec::new();
            let t = get_table(
                &mut r,
                &self.source,
                self.tail.index_off,
                &mut dedup,
                &mut extents,
            )?;
            r.finish().map_err(|_| {
                StorageError::PersistError(format!("trailing bytes after the block of `{name}`"))
            })?;
            if t.name() != name {
                return Err(StorageError::PersistError(format!(
                    "the block of `{name}` holds table `{}`",
                    t.name()
                )));
            }
            let payloads = distinct(extents);
            tables.push((t, BlockAt { off, len, payloads }));
        }
        Ok((version, tables))
    }
}

/// A decoded catalog's tables, each with its block.
fn catalog_of(
    version: u64,
    decoded: Vec<(Table, BlockAt)>,
) -> (Catalog, Vec<(Weak<Table>, BlockAt)>) {
    let mut tables = BTreeMap::new();
    let mut blocks = Vec::with_capacity(decoded.len());
    for (t, b) in decoded {
        let t = Arc::new(t);
        blocks.push((Arc::downgrade(&t), b));
        tables.insert(t.name().to_string(), t);
    }
    (Catalog::from_parts(version, tables), blocks)
}

/// The [`HeapStats`] of the file at `path` — a catalog file, else a table
/// file — read under its save lock after recovery.
pub(crate) fn file_heap_stats(path: &Path) -> Result<HeapStats, StorageError> {
    recovered(path, |path| {
        let opened = Opened::file(path)?;
        let (_, tables) = match opened.decode(true) {
            Ok(decoded) => decoded,
            Err(catalog_err) => opened.decode(false).map_err(|_| catalog_err)?,
        };
        let blocks: Vec<BlockAt> = tables.into_iter().map(|(_, b)| b).collect();
        Ok(heap_stats_of(
            opened.tail.file_len,
            opened.tail.index_off,
            &blocks,
        ))
    })
}

// ---------------------------------------------------------------------------
// Public encode/decode/save/read entry points.
// ---------------------------------------------------------------------------

/// Serializes one table as a complete image (payload heap, block, index,
/// footer).
///
/// # Panics
/// Panics when a lazily opened segment's backing file can no longer be
/// read (it changed or vanished under us) — the same contract as faulting
/// the segment in. [`save_table`] reports such errors instead.
pub fn encode_table(t: &Table) -> Bytes {
    build(&Content::Table(t), None)
        .unwrap_or_else(|e| panic!("encode_table: cannot re-read segment payloads: {e}"))
        .bytes
}

/// Deserializes one table. The image opens lazily: columns carry metadata
/// only, and payloads fault in from the image on first touch.
pub fn decode_table(buf: Bytes) -> Result<Table, StorageError> {
    let (_, mut tables) = Opened::image(buf)?.decode(false)?;
    tables.pop().map(|(t, _)| t).ok_or_else(eof)
}

/// Writes a table to a file. When the file already backs some of the
/// table's segments (it was lazily opened from there, or saved there
/// before), the save *appends*: reused payloads keep their offsets, and new
/// payloads, the block, the index and the footer overwrite the tail —
/// O(new data + metadata). Freshly built segments then adopt their on-disk
/// location and become evictable.
pub fn save_table(t: &Table, path: impl AsRef<Path>) -> Result<(), StorageError> {
    save_content(&Content::Table(t), path.as_ref())
}

/// Runs `read` on `path` under its save lock, after crash recovery: a hot
/// rollback journal from an interrupted save is applied — or, when torn,
/// discarded — so the read sees the last committed state, and no save can
/// overwrite what the read is decoding before its slots are known.
fn recovered<T>(
    path: &Path,
    read: impl FnOnce(&Path) -> Result<T, StorageError>,
) -> Result<T, StorageError> {
    let lock = wal::path_lock(path);
    let _guard = lock.lock().unwrap_or_else(|e| e.into_inner());
    if path.exists() || wal::wal_path(path).exists() {
        wal::recover(path)?;
    }
    read(path)
}

/// Reads a table from a file. The file opens as metadata only — segment
/// payloads stay on disk and fault in through the buffer cache on first
/// touch. Detects an interrupted save first and rolls the file back to its
/// last committed footer.
pub fn read_table(path: impl AsRef<Path>) -> Result<Table, StorageError> {
    recovered(path.as_ref(), read_table_raw)
}

/// [`read_table`] without the recovery step — for callers (vacuum) that
/// already hold the file's save lock and have recovered it.
pub(crate) fn read_table_raw(path: &Path) -> Result<Table, StorageError> {
    let opened = Opened::file(path)?;
    let (_, mut tables) = opened.decode(false)?;
    let (t, block) = tables.pop().ok_or_else(eof)?;
    note_source(&opened.source, payload_end([&block]));
    Ok(t)
}

/// Serializes all tables of a catalog as one image. Each distinct
/// (`Arc`-shared) segment is stored once, however many table versions
/// reference it.
///
/// # Panics
/// See [`encode_table`].
pub fn encode_catalog(cat: &Catalog) -> Bytes {
    build(&Content::of_catalog(cat), None)
        .unwrap_or_else(|e| panic!("encode_catalog: cannot re-read segment payloads: {e}"))
        .bytes
}

/// Deserializes a catalog (lazily — see [`decode_table`]).
pub fn decode_catalog(buf: Bytes) -> Result<Catalog, StorageError> {
    let (version, tables) = Opened::image(buf)?.decode(true)?;
    Ok(catalog_of(version, tables).0)
}

/// Writes a catalog to a file (append-save semantics — see [`save_table`]),
/// re-encoding only the tables that are not, by `Arc`, the ones the file's
/// committed index holds. This is what makes the CLI's `save` and a
/// checkpoint O(changed tables) instead of O(catalog). The file is stamped
/// with the catalog version of the tables it holds; both come from one
/// [`Catalog::begin_evolution`] snapshot.
pub fn save_catalog(cat: &Catalog, path: impl AsRef<Path>) -> Result<(), StorageError> {
    save_content(&Content::of_catalog(cat), path.as_ref())
}

/// Reads a catalog from a file (lazily — see [`read_table`]). Detects an
/// interrupted save first and rolls the file back to its last committed
/// footer.
pub fn read_catalog(path: impl AsRef<Path>) -> Result<Catalog, StorageError> {
    recovered(path.as_ref(), read_catalog_raw)
}

/// [`read_catalog`] without the recovery step — for callers (vacuum, the
/// commit log) that already hold the file's save lock and have recovered
/// it. The decoded tables become the file's committed index, so saving
/// them back re-encodes only the ones replaced since.
pub(crate) fn read_catalog_raw(path: &Path) -> Result<Catalog, StorageError> {
    let opened = Opened::file(path)?;
    let (version, tables) = opened.decode(true)?;
    note_source(&opened.source, payload_end(tables.iter().map(|(_, b)| b)));
    let (catalog, blocks) = catalog_of(version, tables);
    if let Some(id) = opened.source.file_id() {
        let Tail {
            file_len,
            index_off,
            index,
        } = opened.tail;
        note_committed(
            id,
            Committed {
                file_len,
                index_off,
                index,
                blocks,
            },
        );
    }
    Ok(catalog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoded::Encoding;
    use crate::schema::Schema;
    use crate::store::budget_guard;
    use crate::value::Value;

    fn sample() -> Table {
        let schema = Schema::build(
            &[
                ("id", ValueType::Int),
                ("name", ValueType::Str),
                ("score", ValueType::Float),
                ("active", ValueType::Bool),
            ],
            &["id"],
        )
        .unwrap();
        let rows: Vec<Vec<Value>> = (0..100)
            .map(|i| {
                vec![
                    Value::int(i),
                    Value::str(format!("user{}", i % 10)),
                    if i % 7 == 0 {
                        Value::Null
                    } else {
                        Value::float(i as f64 / 3.0)
                    },
                    Value::Bool(i % 2 == 0),
                ]
            })
            .collect();
        Table::from_rows("users", schema, &rows).unwrap()
    }

    /// A table whose columns span several segments.
    fn multi_segment() -> Table {
        let schema = Schema::build(&[("k", ValueType::Int), ("v", ValueType::Int)], &[]).unwrap();
        let rows: Vec<Vec<Value>> = (0..1_000)
            .map(|i| vec![Value::int(i % 17), Value::int(i / 250)])
            .collect();
        Table::from_rows_with_segment_rows("multi", schema, &rows, 128).unwrap()
    }

    /// `multi_segment` with one column uniformly re-encoded RLE.
    fn mixed_encoding() -> Table {
        multi_segment()
            .with_column_encoding("v", Encoding::Rle)
            .unwrap()
    }

    /// `multi_segment` with a *mixed directory*: half of `k`'s segments
    /// recoded (and pinned) RLE, the other half left bitmap.
    fn mixed_directory() -> Table {
        let t = multi_segment();
        let segs = t.column_by_name("k").unwrap().segment_count();
        t.with_column_segment_range_encoding("k", Encoding::Rle, 0..segs / 2)
            .unwrap()
    }

    /// A unique temp path per test so parallel tests never collide.
    fn temp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("cods_persist_{name}_{}.tbl", std::process::id()))
    }

    /// Total `(resident, on_disk)` over every column of a table.
    fn residency(t: &Table) -> (usize, usize) {
        t.columns().iter().fold((0, 0), |(r, d), c| {
            let (cr, cd) = c.residency_counts();
            (r + cr, d + cd)
        })
    }

    fn footer_index_off(path: &Path) -> u64 {
        let raw = std::fs::read(path).unwrap();
        let n = raw.len();
        u64::from_le_bytes(raw[n - 12..n - 4].try_into().unwrap())
    }

    /// `[start, end)` of the one block of a table image, from its index.
    fn table_block(raw: &[u8]) -> (usize, usize) {
        let n = raw.len();
        let index_off = u64::from_le_bytes(raw[n - 12..n - 4].try_into().unwrap()) as usize;
        let mut index = Reader::new(&raw[index_off..n - 12]);
        read_str(&mut index).unwrap();
        let off = index.u64().unwrap() as usize;
        (off, off + index.u64().unwrap() as usize)
    }

    #[test]
    fn table_round_trip() {
        let t = sample();
        let bytes = encode_table(&t);
        let back = decode_table(bytes).unwrap();
        assert_eq!(back.name(), t.name());
        assert_eq!(back.schema(), t.schema());
        assert_eq!(back.rows(), t.rows());
        assert_eq!(back.to_rows(), t.to_rows());
    }

    #[test]
    fn multi_segment_round_trip_preserves_directory() {
        let t = multi_segment();
        let back = decode_table(encode_table(&t)).unwrap();
        assert_eq!(back.to_rows(), t.to_rows());
        let col = back.column(0);
        assert_eq!(col.segment_count(), t.column(0).segment_count());
        assert_eq!(col.nominal_segment_rows(), 128);
        col.check_invariants().unwrap();
    }

    #[test]
    fn open_is_metadata_only() {
        let t = mixed_directory()
            .with_column_encoding_pinned("v", Encoding::Rle)
            .unwrap();
        let back = decode_table(encode_table(&t)).unwrap();
        // Nothing resident until something touches a payload...
        let (resident, on_disk) = residency(&back);
        assert_eq!(resident, 0, "a decode must not fault payloads in");
        assert!(on_disk > 0);
        // ...yet the full metadata surface is there: zones, pins,
        // per-segment encodings, stats.
        for (a, b) in t.columns().iter().zip(back.columns()) {
            assert_eq!(a.zones(), b.zones());
            assert_eq!(a.encoding_counts(), b.encoding_counts());
            assert_eq!(a.encoding_pinned(), b.encoding_pinned());
            for i in 0..a.segment_count() {
                assert_eq!(a.segment_encoding(i), b.segment_encoding(i));
                assert_eq!(a.segment_pinned(i), b.segment_pinned(i), "segment {i} pin");
                assert_eq!(a.segments()[i].meta(), b.segments()[i].meta());
            }
        }
        // Touching the data faults in and matches byte for byte.
        assert_eq!(back.to_rows(), t.to_rows());
        back.check_invariants().unwrap();
    }

    #[test]
    fn mixed_directory_round_trips() {
        let t = mixed_directory();
        let before = t.column_by_name("k").unwrap();
        assert_eq!(before.uniform_encoding(), None, "directory must be mixed");
        let back = decode_table(encode_table(&t)).unwrap();
        back.check_invariants().unwrap();
        assert_eq!(back.to_rows(), t.to_rows());
        let col = back.column_by_name("k").unwrap();
        assert_eq!(col.encoding_counts(), before.encoding_counts());
        for i in 0..col.segment_count() {
            assert_eq!(col.segment_encoding(i), before.segment_encoding(i));
            assert_eq!(
                col.segment_pinned(i),
                before.segment_pinned(i),
                "segment {i} pin"
            );
        }
        assert_eq!(col.zones(), before.zones());
    }

    #[test]
    fn round_trip_preserves_zones_and_pins() {
        let t = mixed_encoding()
            .with_column_encoding_pinned("k", Encoding::Bitmap)
            .unwrap();
        let back = decode_table(encode_table(&t)).unwrap();
        back.check_invariants().unwrap();
        assert_eq!(back.to_rows(), t.to_rows());
        for (a, b) in t.columns().iter().zip(back.columns()) {
            assert_eq!(a.zones(), b.zones(), "zones round-trip byte-exactly");
            assert_eq!(a.encoding_pinned(), b.encoding_pinned());
        }
    }

    /// Finds the first segment record of the first column in a table
    /// image's block, returning the offset of its `segtag` byte. The record
    /// is located by its distinctive `(off, len)` pair.
    fn first_seg_record(raw: &[u8], t: &Table) -> usize {
        let (block, _) = table_block(raw);
        let first = &t.column(0).segments()[0];
        let len0 = payload_encoded_len(&first.enc()) as u64;
        let mut pat = Vec::new();
        pat.extend_from_slice(&(PREAMBLE_LEN as u64).to_le_bytes());
        pat.extend_from_slice(&len0.to_le_bytes());
        let pos = raw[block..]
            .windows(16)
            .position(|w| w == pat.as_slice())
            .expect("first segment record");
        block + pos - 1
    }

    #[test]
    fn corrupt_segment_tag_is_rejected() {
        // A record whose segment tag carries unknown bits must fail
        // decode with a PersistError, not be misread as some encoding.
        let t = multi_segment();
        let bytes = encode_table(&t);
        let mut raw = bytes.as_slice().to_vec();
        let tag_off = first_seg_record(&raw, &t);
        assert!(raw[tag_off] & !(ENC_RLE | SEG_FLAG_PINNED) == 0, "sanity");
        raw[tag_off] = 0xFC;
        let err = decode_table(Bytes::from(raw));
        assert!(
            matches!(err, Err(StorageError::PersistError(_))),
            "expected PersistError, got {err:?}"
        );
    }

    #[test]
    fn out_of_bounds_segment_offset_is_rejected() {
        // A record whose payload location falls outside the heap (or
        // overflows) must fail at open, never at fault time.
        let t = multi_segment();
        let bytes = encode_table(&t);
        for (field_at, bad) in [
            (1usize, u64::MAX - 8), // off: overflows off + len
            (1, 1u64 << 40),        // off: beyond the heap
            (9, 1u64 << 40),        // len: runs past the heap end
            (9, 0u64),              // len: empty payload
        ] {
            let mut raw = bytes.as_slice().to_vec();
            let tag_off = first_seg_record(&raw, &t);
            let at = tag_off + field_at;
            raw[at..at + 8].copy_from_slice(&bad.to_le_bytes());
            let err = decode_table(Bytes::from(raw));
            assert!(
                matches!(err, Err(StorageError::PersistError(_))),
                "field at +{field_at} = {bad}: expected PersistError, got {err:?}"
            );
        }
    }

    /// A well-formed container around one Int column whose record is the
    /// given raw bytes — ~80 bytes of hostile file.
    fn hostile_image(column: &[u8]) -> Bytes {
        let mut block = BytesMut::new();
        put_str(&mut block, "t");
        put_schema(
            &mut block,
            &Schema::build(&[("c", ValueType::Int)], &[]).unwrap(),
        );
        block.put_u64_le(1);
        block.put_slice(column);
        let mut buf = BytesMut::new();
        buf.put_u32_le(MAGIC);
        buf.put_u16_le(VERSION);
        let block = block.freeze();
        buf.put_slice(block.as_slice());
        let at = BlockAt {
            off: PREAMBLE_LEN as u64,
            len: block.len() as u64,
            payloads: Arc::new([]),
        };
        put_entry(&mut buf, "t", &at);
        buf.put_u64_le(at.off + at.len);
        buf.put_u32_le(MAGIC);
        buf.freeze()
    }

    #[test]
    fn hostile_dictionary_count_is_rejected_before_allocating() {
        // `dict_len = u32::MAX` with no values behind it: sizing the value
        // vector from the count would request ~100 GiB and abort.
        let mut col = BytesMut::new();
        col.put_u8(ValueType::Int.tag());
        col.put_u32_le(u32::MAX);
        let err = decode_table(hostile_image(col.freeze().as_slice()));
        assert!(
            matches!(err, Err(StorageError::PersistError(_))),
            "expected PersistError, got {err:?}"
        );
    }

    #[test]
    fn hostile_segment_count_is_rejected_before_allocating() {
        // A one-value dictionary, then `seg_count = u32::MAX` with no
        // records behind it: the slot and pin vectors would request tens
        // of GiB.
        let mut col = BytesMut::new();
        col.put_u8(ValueType::Int.tag());
        col.put_u32_le(1);
        put_value(&mut col, &Value::int(7));
        col.put_u8(0); // flags
        col.put_u64_le(1); // seg_rows
        col.put_u32_le(u32::MAX); // seg_count
        let err = decode_table(hostile_image(col.freeze().as_slice()));
        assert!(
            matches!(err, Err(StorageError::PersistError(_))),
            "expected PersistError, got {err:?}"
        );
    }

    #[test]
    fn corrupt_footer_is_rejected() {
        let bytes = encode_table(&multi_segment());
        let n = bytes.len();
        // Footer magic flipped.
        let mut raw = bytes.as_slice().to_vec();
        raw[n - 1] ^= 0xFF;
        assert!(decode_table(Bytes::from(raw)).is_err());
        // Metadata offset beyond the file.
        let mut raw = bytes.as_slice().to_vec();
        raw[n - 12..n - 4].copy_from_slice(&(n as u64).to_le_bytes());
        assert!(decode_table(Bytes::from(raw)).is_err());
        // Metadata offset inside the preamble.
        let mut raw = bytes.as_slice().to_vec();
        raw[n - 12..n - 4].copy_from_slice(&0u64.to_le_bytes());
        assert!(decode_table(Bytes::from(raw)).is_err());
    }

    #[test]
    fn in_range_but_wrong_zone_is_rejected_by_invariants() {
        // Zone ids that are valid dictionary indices but name the wrong
        // extremes must still fail decode: the metadata invariants
        // re-derive every zone from the segment's present ids and compare
        // — without faulting any payload in.
        let t = mixed_encoding();
        let bytes = encode_table(&t);
        let mut raw = bytes.as_slice().to_vec();
        // The block ends with the last column's zones; its final segment
        // holds only v = 3, so zone (0, 0) is in-range but wrong.
        let (_, end) = table_block(&raw);
        raw[end - 8..end].copy_from_slice(&[0u8; 8]);
        let err = decode_table(Bytes::from(raw));
        assert!(
            matches!(err, Err(StorageError::Corrupt(_))),
            "expected zone mismatch, got {err:?}"
        );
    }

    #[test]
    fn rle_columns_round_trip() {
        let t = mixed_encoding();
        let back = decode_table(encode_table(&t)).unwrap();
        back.check_invariants().unwrap();
        assert_eq!(back.to_rows(), t.to_rows());
        let col = back.column_by_name("v").unwrap();
        assert_eq!(col.uniform_encoding(), Some(Encoding::Rle));
        assert_eq!(
            col.segment_count(),
            t.column_by_name("v").unwrap().segment_count()
        );
        assert_eq!(col.nominal_segment_rows(), 128);
        assert_eq!(
            back.column_by_name("k").unwrap().uniform_encoding(),
            Some(Encoding::Bitmap)
        );
    }

    #[test]
    fn table_file_round_trip_is_lazy() {
        let _g = budget_guard();
        let t = sample();
        let path = temp("file_round_trip");
        save_table(&t, &path).unwrap();
        let back = read_table(&path).unwrap();
        let (resident, on_disk) = residency(&back);
        assert_eq!(resident, 0, "read_table must open metadata-only");
        assert!(on_disk > 0);
        assert_eq!(back.to_rows(), t.to_rows());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fresh_save_adopts_slots_into_the_cache() {
        let _g = budget_guard();
        let store = segment_cache();
        let t = multi_segment();
        assert!(t
            .columns()
            .iter()
            .all(|c| c.segments().iter().all(|s| s.disk_loc().is_none())));
        let path = temp("adopt");
        save_table(&t, &path).unwrap();
        // Every slot now knows where it lives on disk...
        assert!(t
            .columns()
            .iter()
            .all(|c| c.segments().iter().all(|s| s.disk_loc().is_some())));
        // ...and is evictable under pressure, reloading from the file.
        store.set_budget(0);
        assert!(
            residency(&t).1 > 0,
            "adopted slots page out under a zero budget"
        );
        store.set_budget(u64::MAX);
        assert_eq!(t.to_rows(), multi_segment().to_rows());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resaving_a_lazily_opened_table_appends_only_metadata() {
        let _g = budget_guard();
        let t = multi_segment();
        let path = temp("append_noop");
        save_table(&t, &path).unwrap();
        let index_off = footer_index_off(&path);
        let back = read_table(&path).unwrap();
        // Re-saving the unchanged table reuses every payload and writes
        // its block over the old one: the file does not grow and nothing
        // faults in — O(metadata), not O(data).
        save_table(&back, &path).unwrap();
        assert_eq!(footer_index_off(&path), index_off, "heap must not grow");
        assert_eq!(residency(&back).0, 0, "append-save must not fault");
        let again = read_table(&path).unwrap();
        assert_eq!(again.to_rows(), t.to_rows());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn evolving_then_saving_appends_only_new_segments() {
        let _g = budget_guard();
        let t = multi_segment();
        let path = temp("append_grow");
        save_table(&t, &path).unwrap();
        let index_off = footer_index_off(&path);
        let back = read_table(&path).unwrap();
        // Recode two segments: two fresh payloads, the rest reused.
        let evolved = back
            .with_column_segment_range_encoding("k", Encoding::Rle, 0..2)
            .unwrap();
        save_table(&evolved, &path).unwrap();
        let new_index_off = footer_index_off(&path);
        assert!(new_index_off > index_off, "new payloads are appended");
        // The new block is as long as the old one it replaced.
        let appended = new_index_off - index_off;
        let expected: u64 = evolved
            .column_by_name("k")
            .unwrap()
            .segments()
            .iter()
            .take(2)
            .map(|s| payload_encoded_len(&s.enc()) as u64)
            .sum();
        assert_eq!(appended, expected, "only the recoded payloads");
        // The untouched segments were never read during the save.
        let (_, on_disk) = residency(&back);
        assert!(on_disk > 0, "reused segments stay on disk");
        let again = read_table(&path).unwrap();
        assert_eq!(again.to_rows(), evolved.to_rows());
        std::fs::remove_file(&path).ok();
    }

    /// An append-save overwrites the tail past the last extent it keeps —
    /// but never an extent a live slot is bound to. A table an older
    /// snapshot still holds keeps faulting in its own payloads after later
    /// saves replaced it, even once evicted.
    #[test]
    fn a_slot_of_an_older_snapshot_survives_later_saves() {
        let _g = budget_guard();
        let path = temp("older_snapshot");
        let cat = Catalog::new();
        cat.create(multi_segment()).unwrap();
        cat.create(sample()).unwrap();
        save_catalog(&cat, &path).unwrap();
        let recode = |enc| {
            let t = cat.get("users").unwrap();
            cat.put(t.with_column_encoding("name", enc).unwrap());
            save_catalog(&cat, &path).unwrap();
        };
        recode(Encoding::Rle);
        let older = cat.get("users").unwrap();
        recode(Encoding::Bitmap);
        let store = segment_cache();
        for _ in 0..3 {
            store.set_budget(0);
        }
        store.set_budget(u64::MAX);
        assert!(residency(&older).1 > 0, "the older snapshot was paged out");
        older.check_invariants().unwrap();
        assert_eq!(older.to_rows(), sample().to_rows());
        assert_eq!(
            read_catalog(&path).unwrap().get("users").unwrap().to_rows(),
            sample().to_rows()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn saving_a_lazy_table_elsewhere_raw_copies_without_faulting() {
        let _g = budget_guard();
        let t = mixed_directory();
        let a = temp("copy_a");
        let b = temp("copy_b");
        save_table(&t, &a).unwrap();
        let back = read_table(&a).unwrap();
        save_table(&back, &b).unwrap();
        assert_eq!(
            residency(&back).0,
            0,
            "payloads are raw-copied between files, never decoded"
        );
        let from_b = read_table(&b).unwrap();
        assert_eq!(from_b.to_rows(), t.to_rows());
        std::fs::remove_file(&a).ok();
        std::fs::remove_file(&b).ok();
    }

    #[test]
    fn catalog_round_trip() {
        let cat = Catalog::new();
        cat.create(sample()).unwrap();
        cat.create(sample().renamed("users2")).unwrap();
        let bytes = encode_catalog(&cat);
        let back = decode_catalog(bytes).unwrap();
        assert_eq!(back.table_names(), vec!["users", "users2"]);
        assert_eq!(
            back.get("users").unwrap().to_rows(),
            cat.get("users").unwrap().to_rows()
        );
    }

    #[test]
    fn shared_columns_are_stored_once_and_reshared_on_decode() {
        let cat = Catalog::new();
        let t = multi_segment();
        cat.create(t.clone()).unwrap();
        cat.create(t.renamed("multi2")).unwrap();
        let bytes = encode_catalog(&cat);
        // Both tables reference the same slots, so the heap stores each
        // payload once: the catalog image is far smaller than two tables.
        let single = encode_table(&cat.get("multi").unwrap()).len();
        assert!(
            bytes.len() < 2 * single,
            "catalog of two shared tables ({}) must dedup against 2 × {single}",
            bytes.len()
        );
        // And the decode re-shares: identical heap locations become one
        // slot, cached once for every snapshot.
        let back = decode_catalog(bytes).unwrap();
        let c1 = back.get("multi").unwrap();
        let c2 = back.get("multi2").unwrap();
        for (a, b) in c1.columns().iter().zip(c2.columns()) {
            for (sa, sb) in a.segments().iter().zip(b.segments()) {
                assert!(sa.ptr_eq(sb), "shared columns must come back shared");
            }
        }
        assert_eq!(c1.to_rows(), c2.to_rows());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(0xDEAD_BEEF);
        buf.put_u16_le(VERSION);
        assert!(decode_table(buf.freeze()).is_err());
    }

    #[test]
    fn future_version_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(MAGIC);
        buf.put_u16_le(VERSION + 1);
        assert!(decode_table(buf.freeze()).is_err());
    }

    #[test]
    fn previous_version_is_refused_by_number() {
        // Format 7 kept one metadata region where 8 has blocks behind an
        // index; it is refused like any other foreign version, not guessed
        // at.
        let mut raw = encode_catalog(&Catalog::new()).as_slice().to_vec();
        raw[4..6].copy_from_slice(&7u16.to_le_bytes());
        for err in [
            decode_catalog(Bytes::from(raw.clone())).map(|_| ()),
            decode_table(Bytes::from(raw)).map(|_| ()),
        ] {
            match err {
                Err(StorageError::PersistError(m)) => assert_eq!(m, "unsupported version 7"),
                other => panic!("wanted the unsupported-version error, got {other:?}"),
            }
        }
    }

    #[test]
    fn catalog_file_carries_the_version_of_its_content() {
        let _g = budget_guard();
        let cat = Catalog::new();
        cat.create(sample()).unwrap();
        cat.create(multi_segment()).unwrap();
        cat.drop_table("multi").unwrap();
        assert_eq!(cat.version(), 3);
        let path = temp("catalog_version");
        save_catalog(&cat, &path).unwrap();
        let back = read_catalog(&path).unwrap();
        assert_eq!(back.version(), 3, "a catalog read back starts where it was");
        assert_eq!(back.table_names(), vec!["users"]);
        // An append-save and a vacuum stamp what they write, too.
        back.put(multi_segment());
        save_catalog(&back, &path).unwrap();
        assert_eq!(read_catalog(&path).unwrap().version(), 4);
        crate::vacuum::vacuum_file(&path).unwrap();
        assert_eq!(read_catalog(&path).unwrap().version(), 4);
        assert_eq!(decode_catalog(encode_catalog(&back)).unwrap().version(), 4);

        // The field opens the index; a file cut inside it has lost its
        // footer and is the typed torn tail.
        let raw = std::fs::read(&path).unwrap();
        let index_off = footer_index_off(&path) as usize;
        assert_eq!(raw[index_off..index_off + 8], 4u64.to_le_bytes());
        std::fs::write(&path, &raw[..index_off + 5]).unwrap();
        match read_catalog(&path) {
            Err(StorageError::Corrupt(m)) => assert!(m.contains("torn tail"), "{m}"),
            other => panic!(
                "wanted the torn-tail error, got {:?}",
                other.map(|c| c.len())
            ),
        }
        // An image cut there has no path to hint at: a plain decode error.
        assert!(matches!(
            decode_catalog(Bytes::from(raw[..index_off + 5].to_vec())),
            Err(StorageError::PersistError(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_rejected() {
        let bytes = encode_table(&sample());
        for cut in [0, 3, 6, 10, bytes.len() / 2, bytes.len() - 1] {
            let sliced = bytes.slice(0..cut);
            assert!(decode_table(sliced).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn empty_table_round_trip() {
        let schema = Schema::build(&[("a", ValueType::Int)], &[]).unwrap();
        let t = Table::from_rows("empty", schema, &[]).unwrap();
        let back = decode_table(encode_table(&t)).unwrap();
        assert_eq!(back.rows(), 0);
        assert_eq!(back.name(), "empty");
    }
}
