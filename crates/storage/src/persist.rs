//! Binary persistence of tables and catalogs.
//!
//! There is one on-disk format (version 13). A file is a preamble, two
//! commit slots, and a heap of segment payloads, per-table metadata blocks
//! and the index naming the blocks. A column opens as *metadata only* —
//! schema, dictionary, per-segment stats, encoding/pin tags — while
//! segment payloads stay on disk and fault in through the buffer
//! cache ([`crate::store`]) on first touch:
//!
//! ```text
//! file     := preamble slot slot heap
//! preamble := magic:u32 version:u16
//! slot     := generation:u64 index_off:u64 index_len:u64
//!             index_sum:u64 slot_sum:u64
//! heap     := (payload | block | index | free)*        (past the slots)
//! index    := entry                                (table file)
//! index    := version:u64 table_count:u32 entry*   (catalog file)
//! entry    := name:str block_off:u64 block_len:u64
//! block    := table                                (one table's metadata)
//! table    := name:str schema rows:u64 column*
//! schema   := arity:u16 (name:str tag:u8)* key_len:u16 key_idx:u16*
//! column   := dict flags:u8 seg_rows:u64 seg_count:u32 segment*
//! dict     := tag:u8 dict_len:u32 value*           (tag bit 7 clear)
//!           | tag:u8 dict_len:u32 first:i64        (tag bit 7 set: dense)
//! flags    := bit 0: whole column pinned by explicit recode
//! segment  := segtag:u8 off:u64 len:u64 rows:u64 runs:u64 bytes:u64
//!             present:u32 (id:u32)* (ones:u64)*    (a listed segment)
//!           | segtag:u8 rows:u64 first:u32         (segtag 8: a range)
//! segtag   := bits 0, 2, 3: encoding (0 bitmap, 1 rle, 4 packed,
//!             8 range); bit 1: segment pinned
//! payload  := bitmaps | runs | codes               (as `segtag` says)
//! bitmaps  := (end:u32)^present (word:u64)*        (bitmap segment)
//! runs     := rows:u64 run_count:u32 (id:u32 len:u64)*   (RLE segment)
//! codes    := (word:u64)^⌈rows·width/64⌉           (packed segment)
//! value, str, schema                               ([`crate::codec`])
//! ```
//!
//! A slot is valid when `slot_sum` is the checksum ([`wal::checksum`]) of
//! its four fields. The file's committed state is the one the valid slot
//! with the higher `generation` names: its index lies at `index_off`, is
//! `index_len` bytes long and checksums to `index_sum`. A fresh image
//! commits generation 1 in the first slot and leaves the second zeroed,
//! which is invalid. Opening reads the two slots and that index and
//! writes nothing; if neither slot is valid, both name one generation, or
//! the newer one names an index the file does not hold, the open is
//! [`StorageError::Corrupt`].
//!
//! `off`/`len` locate a segment's payload in the heap;
//! `rows`/`runs`/`bytes`/ids/ones are the resident stats scans prune on
//! without faulting. No zone map is stored: a column derives its zones
//! from the ids and the dictionary's value order when a read first asks
//! for them ([`EncodedColumn::zones`]). A bitmap payload is a head table,
//! one `end` per present id, and then every present id's WAH words in id
//! order, each id's active word last: id `i`'s words are
//! `end[i-1]..end[i]` (from 0 for the first), so the ends rise strictly
//! and the last closes the payload. Nothing else of a bitmap is stored:
//! its length is the segment's `rows`, which fixes its active word's valid
//! bits (`rows mod 63`), and its population is its `ones` entry. A few
//! ids' bitmaps can therefore be read without the rest
//! ([`crate::store::SegSlot::try_bitmaps`]). `bytes` is the decoded
//! segment's cache charge — eight per word before an active word plus 24
//! per present id — not the payload's length. A packed
//! payload is each row's position among the present ids (its code),
//! bit-packed LSB-first into little-endian words at `width = max(1,
//! bits(present − 1))` bits, the last word's unused bits zero: its length is
//! exactly `8·⌈rows·width/64⌉`, which is also its `bytes`, and every code is
//! below `present` ([`crate::packed`]). The heap stores each
//! distinct (`Arc`-shared) segment once, however many columns or table
//! versions reference it, and a decode re-shares slots with identical
//! locations. A block is self-contained: it decodes on its own and names
//! the table its entry names. Every block lies in the heap, no two blocks
//! overlap each other or the index, and no two entries share a name.
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
//! tables are encoded. Free space is derived, never stored: every heap byte
//! that neither the committed state references (its index, blocks and
//! their payloads) nor a live in-memory slot may fault in from. Each new
//! payload, each new block and the index go at the lowest free offset that
//! holds them, else past the end. The save syncs them, then overwrites the
//! slot holding the *older* generation with the next one and syncs again —
//! that slot write is the commit point — and finally cuts the file after
//! the last extent the new state or a live slot keeps. The protocol assumes
//! a write cut short changes no byte outside its own range: the preamble
//! and both slots share one sector, and a new extent may share a page with
//! bytes the committed state needs. After any save, freshly built segments
//! adopt their new on-disk location and become evictable. A first save, a
//! save that shares nothing with its target, and a vacuum write a fresh
//! image to a temp file and rename it over the target.
//!
//! A dense dictionary — the ints `first..first + dict_len` in id order —
//! is its first value alone, in an int column, and only when `dict_len` is
//! 1 + the largest id the column's segments name; a range segment — row
//! `r` holds id `first + r`, each id once — is its record alone: packed,
//! `runs` = `rows`, `bytes` 0, no payload in the heap, so it is resident
//! from the open and never faults. Neither count is backed by bytes, so
//! the decoder bounds both before trusting them: a dense run must not
//! overflow `i64` and must be exactly as long as its segments' largest id
//! says, a range's ids must lie inside `u32` and the dictionary, and
//! nothing is allocated per dense value or per range row at the open. A
//! record that lists ids is byte for byte version 12's.
//!
//! A preamble carrying any other version is refused with
//! `PersistError("unsupported version N")`. Every field is read with the
//! one checked reader ([`crate::codec::Reader`]), so a count is held
//! against the bytes left before anything is sized from it, and any fault
//! of the bytes past the slots' own is a `PersistError`.

use crate::catalog::Catalog;
use crate::codec::{
    put_schema, put_str, put_value, read_schema, read_str, read_value, CodecError, Reader,
};
use crate::dictionary::Dictionary;
use crate::encoded::{EncodedColumn, Encoding, SegmentEnc};
use crate::error::StorageError;
use crate::fault;
use crate::packed::PackedSegment;
use crate::span::{self, Span};
use crate::store::{
    encode_payload, payload_encoded_len, segment_cache, DiskLoc, FileId, PayloadSource, Present,
    SegMeta, SegSlot,
};
use crate::table::Table;
use crate::vacuum::HeapStats;
use crate::value::ValueType;
use crate::wal;
use bytes::{BufMut, Bytes};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock, Weak};

const MAGIC: u32 = 0xC0D5_0001;
/// The on-disk format version (two commit slots naming the index of a
/// heap with one metadata block per table; catalog files stamped with the
/// catalog version they hold; bitmap payloads a head table and header-free
/// words; a third, bit-packed segment kind; no stored zone maps; a dense
/// int dictionary recorded as its first value and a range segment as its
/// rows and first id) — the only one this build reads or writes.
pub const VERSION: u16 = 13;

/// `magic:u32 version:u16`.
pub(crate) const PREAMBLE_LEN: usize = 6;
/// `generation index_off index_len index_sum slot_sum`, a `u64` each.
const SLOT_LEN: usize = 40;
/// The preamble and both slots: where the heap starts.
const HEADER_LEN: u64 = (PREAMBLE_LEN + 2 * SLOT_LEN) as u64;
/// The least an index entry occupies: an empty name, `block_off`,
/// `block_len`.
const ENTRY_MIN: usize = 4 + 8 + 8;
/// The least a segment record can occupy: a range's `segtag rows first`.
const SEG_RECORD_MIN: usize = 1 + 8 + 4;

const ENC_BITMAP: u8 = 0;
const ENC_RLE: u8 = 1;
const ENC_PACKED: u8 = 4;
/// A range segment: a packed segment recorded by its bounds alone.
const ENC_RANGE: u8 = 8;
/// Dictionary tag bit: a dense int run, recorded by its first value.
const DICT_DENSE: u8 = 0x80;
/// Column flag bit: whole column pinned by an explicit recode.
const FLAG_PINNED: u8 = 1;
/// Segment tag bit: this segment pinned by a segment-range recode.
const SEG_FLAG_PINNED: u8 = 2;

fn eof() -> StorageError {
    StorageError::PersistError("unexpected end of buffer".into())
}

/// Writes a column's dictionary: a dense int run as its first value (tag
/// bit [`DICT_DENSE`]) when it is one and its length is 1 + the largest id
/// the column's segments name — what the decoder holds it to — else every
/// value.
fn put_dict<B: BufMut>(buf: &mut B, c: &EncodedColumn) {
    let dict = c.dict();
    let named = c
        .segments()
        .iter()
        .filter_map(|s| s.meta().present.last())
        .max();
    let dense = dict.dense_first().filter(|_| {
        c.ty() == ValueType::Int && named.map(|id| id as usize + 1) == Some(dict.len())
    });
    buf.put_u8(c.ty().tag() | if dense.is_some() { DICT_DENSE } else { 0 });
    buf.put_u32_le(dict.len() as u32);
    match dense {
        Some(first) => buf.put_i64_le(first),
        None => {
            for v in dict.iter() {
                put_value(buf, &v);
            }
        }
    }
}

/// Reads a column's dictionary. A dense one's length is not backed by
/// bytes: it is held by its bounds, allocating nothing per value, and its
/// column checks it against the ids its segments name (`get_column`).
fn get_dict(r: &mut Reader<'_>) -> Result<(ValueType, Dictionary), StorageError> {
    let tag = r.u8()?;
    let dense = tag & DICT_DENSE != 0;
    let ty = ValueType::from_tag(tag & !DICT_DENSE).ok_or(CodecError::BadTag("value type", tag))?;
    if dense {
        let len = r.u32()?;
        let first = r.i64()?;
        if ty != ValueType::Int || len == 0 {
            return Err(StorageError::PersistError(format!(
                "a dense dictionary of {len} values in a {ty} column"
            )));
        }
        if first.checked_add(i64::from(len) - 1).is_none() {
            return Err(StorageError::PersistError(format!(
                "a dense dictionary of {len} values from {first} overflows i64"
            )));
        }
        return Ok((ty, Dictionary::dense(first, len as usize)));
    }
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
// Commit slots: which state of the file is committed.
// ---------------------------------------------------------------------------

/// One commit slot: the generation of the state it commits and where that
/// state's index lies, with the index's checksum. Its bytes end in a
/// checksum of the four fields, so a torn slot write reads as invalid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Slot {
    generation: u64,
    index_off: u64,
    index_len: u64,
    index_sum: u64,
}

impl Slot {
    fn to_bytes(self) -> [u8; SLOT_LEN] {
        let mut out = [0u8; SLOT_LEN];
        let fields = [
            self.generation,
            self.index_off,
            self.index_len,
            self.index_sum,
        ];
        for (at, field) in out.chunks_exact_mut(8).zip(fields) {
            at.copy_from_slice(&field.to_le_bytes());
        }
        let sum = wal::checksum(&[&out[..SLOT_LEN - 8]]);
        out[SLOT_LEN - 8..].copy_from_slice(&sum.to_le_bytes());
        out
    }

    /// The slot `raw` holds, when its checksum holds.
    fn parse(raw: &[u8]) -> Option<Slot> {
        let mut r = Reader::new(raw);
        let slot = Slot {
            generation: r.u64().ok()?,
            index_off: r.u64().ok()?,
            index_len: r.u64().ok()?,
            index_sum: r.u64().ok()?,
        };
        (r.u64().ok()? == wal::checksum(&[&raw[..SLOT_LEN - 8]])).then_some(slot)
    }

    /// The index's extent.
    fn index(&self) -> (u64, u64) {
        (self.index_off, self.index_len)
    }
}

/// A container's committed slot and index: all a save or an open reads up
/// front.
struct Tail {
    file_len: u64,
    slot: Slot,
    /// Which of the two slots holds `slot` (0 or 1).
    which: usize,
    /// The index bytes.
    index: Bytes,
}

/// The one header parser — the save path, vacuum, the in-memory decode and
/// the lazy file open all find the committed index through it. Checks the
/// preamble (magic, version), takes the newer of the two slots whose
/// checksums hold, and reads the index that slot names, which must lie past
/// the slots, inside the file, and match the slot's index checksum. Reads
/// nothing else, and writes nothing.
///
/// Slot faults are [`StorageError::Corrupt`]: neither slot valid, both
/// naming one generation, or a valid slot whose index the file does not
/// hold. `path` names a file-backed source, whose error carries a recovery
/// hint.
fn read_tail(
    src: &PayloadSource,
    file_len: u64,
    path: Option<&Path>,
) -> Result<Tail, StorageError> {
    let head = src.read_at(0, PREAMBLE_LEN as u64).map_err(|_| eof())?;
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
    let torn = |detail: String| torn_tail(path, detail);
    let slots = src
        .read_at(PREAMBLE_LEN as u64, 2 * SLOT_LEN as u64)
        .map_err(|_| torn(format!("file is only {file_len} bytes")))?;
    let (which, slot) = match [0, 1].map(|i| Slot::parse(&slots[i * SLOT_LEN..])) {
        [Some(a), Some(b)] if a.generation == b.generation => {
            return Err(torn(format!(
                "both commit slots name generation {}",
                a.generation
            )))
        }
        [Some(a), Some(b)] if a.generation > b.generation => (0, a),
        [_, Some(b)] => (1, b),
        [Some(a), None] => (0, a),
        [None, None] => return Err(torn("neither commit slot is valid".into())),
    };
    let (off, len) = slot.index();
    if off < HEADER_LEN || off.checked_add(len).is_none_or(|end| end > file_len) {
        return Err(torn(format!(
            "generation {}'s index at {off} (+{len}) is outside [{HEADER_LEN}, {file_len})",
            slot.generation
        )));
    }
    let index = src.read_at(off, len)?;
    if wal::checksum(&[&index]) != slot.index_sum {
        return Err(torn(format!(
            "generation {}'s index fails its checksum",
            slot.generation
        )));
    }
    Ok(Tail {
        file_len,
        slot,
        which,
        index: Bytes::from(index),
    })
}

/// The typed corruption error for a container whose committed state cannot
/// be read: its slots are torn, or name an index the file does not hold.
/// A file's error carries a recovery hint.
fn torn_tail(path: Option<&Path>, detail: String) -> StorageError {
    StorageError::Corrupt(match path {
        Some(p) => format!(
            "{}: torn tail ({detail}); no commit slot names a state the file holds — \
             restore the file from a copy or re-create it with a fresh save",
            p.display()
        ),
        None => format!("torn tail ({detail})"),
    })
}

/// The committed generation of the table or catalog file at `path`, and
/// which of its two commit slots holds it. Reads the preamble, the slots
/// and the index; writes nothing.
pub fn committed_slot(path: impl AsRef<Path>) -> Result<(u64, usize), StorageError> {
    let tail = Opened::file(path.as_ref())?.tail;
    Ok((tail.slot.generation, tail.which))
}

// ---------------------------------------------------------------------------
// Writer: payloads, metadata blocks and the index into free space.
// ---------------------------------------------------------------------------

/// A slot whose payload the current save placed (or will place) in the
/// target file, with its heap location — the post-save adoption list.
type Placement = (SegSlot, u64, u64);

/// Distinct `(off, len)` extents of a file, ascending.
type Extents = Arc<[(u64, u64)]>;

/// One table's metadata block in a file, with the payload extents its
/// segment records name.
#[derive(Clone, Debug)]
struct BlockAt {
    off: u64,
    len: u64,
    payloads: Extents,
}

/// `extents` without repeats, ascending.
fn distinct(mut extents: Vec<(u64, u64)>) -> Extents {
    extents.sort_unstable();
    extents.dedup();
    extents.into()
}

/// Every extent a state keeps: its index, its blocks and their payloads.
fn state_extents<'b>(
    slot: &Slot,
    blocks: impl IntoIterator<Item = &'b BlockAt>,
) -> Vec<(u64, u64)> {
    let mut extents = vec![slot.index()];
    for b in blocks {
        extents.push((b.off, b.len));
        extents.extend_from_slice(&b.payloads);
    }
    extents
}

/// The end of the furthest of `extents`.
fn end_of(extents: &[(u64, u64)]) -> u64 {
    extents
        .iter()
        .map(|&(off, len)| off + len)
        .max()
        .unwrap_or(0)
}

/// The free space of a file being saved into: the gaps between the
/// extents the save must keep, lowest first, and the offset from which on
/// everything is free.
#[derive(Clone, Debug)]
struct FreeList {
    /// `[start, end)` gaps, ascending.
    gaps: Vec<(u64, u64)>,
    tail: u64,
}

impl FreeList {
    /// Everything past the commit slots except `kept`.
    fn around(mut kept: Vec<(u64, u64)>) -> FreeList {
        kept.sort_unstable();
        let mut free = FreeList {
            gaps: Vec::new(),
            tail: HEADER_LEN,
        };
        for (off, len) in kept {
            if off > free.tail {
                free.gaps.push((free.tail, off));
            }
            free.tail = free.tail.max(off + len);
        }
        free
    }

    /// Takes `len` bytes at the lowest free offset that holds them.
    fn take(&mut self, len: u64) -> u64 {
        if let Some(i) = self.gaps.iter().position(|&(s, e)| e - s >= len) {
            let at = self.gaps[i].0;
            self.gaps[i].0 += len;
            if self.gaps[i].0 == self.gaps[i].1 {
                self.gaps.remove(i);
            }
            return at;
        }
        self.tail += len;
        self.tail - len
    }
}

/// Accumulates the new bytes of one save: each distinct slot's payload is
/// placed exactly once (keyed by slot identity, so every directory and
/// table version sharing a slot shares its bytes), and on an append-save
/// slots already backed by the target file keep their existing offsets
/// without being read at all.
struct HeapBuilder<'a> {
    free: FreeList,
    /// `(offset, bytes)` of everything placed so far.
    writes: Vec<(u64, Vec<u8>)>,
    /// Where each placed slot's payload went.
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
    /// Places `bytes` at the lowest free offset that holds them.
    fn put(&mut self, bytes: Vec<u8>) -> (u64, u64) {
        let at = (self.free.take(bytes.len() as u64), bytes.len() as u64);
        self.writes.push((at.0, bytes));
        at
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
        let (off, len) = self.put(raw);
        self.placed.insert(slot.ident(), (off, len));
        self.placements.push((slot.clone(), off, len));
        Ok((off, len))
    }
}

/// Writes one column's metadata record, placing its payloads in the heap.
fn put_column<B: BufMut>(
    meta: &mut B,
    heap: &mut HeapBuilder<'_>,
    c: &EncodedColumn,
) -> Result<(), StorageError> {
    put_dict(meta, c);
    let flags = if c.encoding_pinned() { FLAG_PINNED } else { 0 };
    meta.put_u8(flags);
    meta.put_u64_le(c.nominal_segment_rows());
    meta.put_u32_le(c.segment_count() as u32);
    for (i, slot) in c.segments().iter().enumerate() {
        let m = slot.meta();
        // Bit 1 records the *segment-range* pin only; the whole-column pin
        // lives in the column flags byte, so the two survive independently.
        let pin = if c.segment_pin_raw(i) {
            SEG_FLAG_PINNED
        } else {
            0
        };
        let (ids, ones) = match &m.present {
            Present::Range { first, .. } => {
                // No payload: the record is the segment.
                meta.put_u8(ENC_RANGE | pin);
                meta.put_u64_le(m.rows);
                meta.put_u32_le(*first);
                continue;
            }
            Present::List { ids, ones } => (ids, ones),
        };
        let (off, len) = heap.place(slot)?;
        let tag = match m.encoding {
            Encoding::Bitmap => ENC_BITMAP,
            Encoding::Rle => ENC_RLE,
            Encoding::Packed => ENC_PACKED,
        };
        meta.put_u8(tag | pin);
        meta.put_u64_le(off);
        meta.put_u64_le(len);
        meta.put_u64_le(m.rows);
        meta.put_u64_le(m.runs);
        meta.put_u64_le(m.bytes as u64);
        meta.put_u32_le(ids.len() as u32);
        for &id in ids.iter() {
            meta.put_u32_le(id);
        }
        for &n in ones.iter() {
            meta.put_u64_le(n);
        }
    }
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
}

/// The product of [`build`]: the bytes to write, the adoption list, and
/// the state they commit.
struct Built {
    /// `(offset, pieces)` runs in file order, each run's pieces abutting.
    /// Without a plan, one run from offset 0: the whole image. A run is
    /// written piece by piece ([`fault::write_pieces`]), never joined, so a
    /// save holds its payloads once, not twice.
    writes: Vec<(u64, Vec<Vec<u8>>)>,
    placements: Vec<Placement>,
    /// Every table's block, in content order.
    blocks: Vec<BlockAt>,
    /// The slot that commits this state.
    slot: Slot,
}

impl Built {
    /// The whole image of a build without a plan, as its pieces in file
    /// order.
    fn image(&mut self) -> Vec<Vec<u8>> {
        match std::mem::take(&mut self.writes).pop() {
            Some((0, image)) => image,
            _ => unreachable!("a build without a plan is one run from offset 0"),
        }
    }
}

/// `writes` sorted by offset, abutting ones grouped into one run.
fn runs(mut writes: Vec<(u64, Vec<u8>)>) -> Vec<(u64, Vec<Vec<u8>>)> {
    writes.sort_unstable_by_key(|&(off, _)| off);
    let mut runs: Vec<(u64, u64, Vec<Vec<u8>>)> = Vec::with_capacity(writes.len());
    for (off, bytes) in writes {
        match runs.last_mut() {
            Some((_, end, run)) if *end == off => {
                *end += bytes.len() as u64;
                run.push(bytes);
            }
            _ => runs.push((off, off + bytes.len() as u64, vec![bytes])),
        }
    }
    runs.into_iter().map(|(off, _, run)| (off, run)).collect()
}

/// Serializes `what` as generation `generation`. Without a plan this is a
/// complete image: the preamble, the slot that commits it, an empty second
/// slot, then payloads, blocks and the index in that order. With one it is
/// what an append-save writes: the payloads not already in the target, the
/// blocks of the tables the plan does not reuse, and the index, each at
/// the lowest free offset of the plan that holds it.
fn build(
    what: &Content<'_>,
    plan: Option<&AppendPlan>,
    generation: u64,
) -> Result<Built, StorageError> {
    let mut heap = HeapBuilder {
        free: plan.map_or_else(|| FreeList::around(Vec::new()), |p| p.free.clone()),
        writes: Vec::new(),
        placed: HashMap::new(),
        reuse: plan.map(|p| p.canon.as_path()),
        reuse_id: plan.and_then(|p| p.id),
        extents: Vec::new(),
        placements: Vec::new(),
    };
    // A block is placed once every payload is: blocks follow the payloads
    // in a fresh image.
    let mut blocks = Vec::new();
    let mut fresh = Vec::new();
    for t in what.tables() {
        if let Some(b) = plan.and_then(|p| p.reuse.get(&(t as *const Table))) {
            blocks.push(b.clone());
            continue;
        }
        let mut block = Vec::new();
        put_table(&mut block, &mut heap, t)?;
        blocks.push(BlockAt {
            off: 0,
            len: block.len() as u64,
            payloads: distinct(std::mem::take(&mut heap.extents)),
        });
        fresh.push((blocks.len() - 1, block));
    }
    for (i, block) in fresh {
        blocks[i].off = heap.put(block).0;
    }
    let mut index = Vec::new();
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
    let index_sum = wal::checksum(&[&index]);
    let (index_off, index_len) = heap.put(index);
    let slot = Slot {
        generation,
        index_off,
        index_len,
        index_sum,
    };
    if plan.is_none() {
        let mut header = Vec::with_capacity(HEADER_LEN as usize);
        header.put_u32_le(MAGIC);
        header.put_u16_le(VERSION);
        header.put_slice(&slot.to_bytes());
        header.put_slice(&[0; SLOT_LEN]);
        heap.writes.push((0, header));
    }
    Ok(Built {
        writes: runs(heap.writes),
        placements: heap.placements,
        blocks,
        slot,
    })
}

/// Where an append-save lands: the target, the committed state it
/// replaces, the committed blocks the new index references as they are
/// (keyed by the table they hold), and the space it may write into.
struct AppendPlan {
    canon: PathBuf,
    id: Option<FileId>,
    committed: Tail,
    reuse: HashMap<*const Table, BlockAt>,
    /// Everything past the slots that neither the committed state nor a
    /// live slot keeps.
    free: FreeList,
    /// The end of the furthest extent a live slot is bound to.
    live_end: u64,
}

/// Decides whether saving `what` onto `path` can append: the target must
/// be a healthy container that already holds one of the content's blocks
/// or backs one of its segments. Any doubt falls back to a full rewrite.
///
/// Free space is derived, never stored: every byte past the slots that
/// neither the committed state references (its index, its blocks and their
/// payloads — as this process recorded them for that slot, else decoded
/// from the file) nor a live in-memory slot is bound to. Without a file
/// identity no binding is known, and only the bytes past the end of the
/// file are free.
fn append_plan(what: &Content<'_>, path: &Path) -> Option<AppendPlan> {
    let canon = std::fs::canonicalize(path).ok()?;
    let opened = Opened::file(path).ok()?;
    // Identity of the inode currently at the path: a slot opened before a
    // vacuum replaced the file holds offsets into the *old* inode, and
    // must not be treated as already-present in the new one.
    let id = opened.source.file_id();
    let (blocks, reuse): (Vec<BlockAt>, _) = match (
        what,
        id.and_then(|id| committed_blocks(id, &opened.tail.slot)),
    ) {
        (Content::Catalog(_, tables), Some(known)) => {
            let reuse = reusable(&known, tables);
            (known.into_iter().map(|(_, b)| b).collect(), reuse)
        }
        _ => {
            let catalog = matches!(what, Content::Catalog(..));
            let decoded = opened.decode(catalog).ok()?.1;
            (
                decoded.into_iter().map(|(_, b)| b).collect(),
                HashMap::new(),
            )
        }
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
    let live = match id {
        Some(id) => bound_extents(id),
        None => vec![(HEADER_LEN, opened.tail.file_len - HEADER_LEN)],
    };
    let live_end = end_of(&live);
    let mut kept = state_extents(&opened.tail.slot, &blocks);
    kept.extend(live);
    Some(AppendPlan {
        canon,
        id,
        committed: opened.tail,
        reuse,
        free: FreeList::around(kept),
        live_end,
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
    let mut bound = Vec::with_capacity(built.placements.len());
    for (slot, offset, len) in built.placements {
        bound.push((offset, len));
        let loc = DiskLoc {
            source: Arc::clone(&source),
            offset,
            len,
        };
        if bind(&slot, loc) {
            store.adopt(&slot);
        }
    }
    note_source(&source, bound);
    if let (Some(id), Content::Catalog(_, tables)) = (source.file_id(), what) {
        note_committed(
            id,
            Committed {
                slot: built.slot,
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

/// Durable whole-file replacement: the image's pieces are written in
/// order to a sibling temp file, synced, and atomically renamed over the
/// target — the rename is the commit point, so a crash leaves either the
/// old file or the new one, never a half-written hybrid. The directory is synced after the rename,
/// so the new name survives a power cut too.
fn write_atomic(path: &Path, pieces: &[Vec<u8>]) -> Result<(), StorageError> {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".tmp.{}", std::process::id()));
    let tmp = path.with_file_name(name);
    let res = (|| -> Result<(), StorageError> {
        let mut f = fault::create(&tmp)?;
        fault::write_pieces(&mut f, pieces)?;
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

/// The append-save commit protocol: the new payloads, blocks and index go
/// into free space and are synced; then the slot holding the *older*
/// generation is overwritten with the next one and synced — that write is
/// the commit point; then the file is cut after the last extent still
/// kept. No file is created or removed. Returns the heap occupancy, for
/// the auto-vacuum trigger.
///
/// A failure after the slot write puts the overwritten slot's old bytes
/// back, so the file opens to the state the save started from and the
/// same process can retry at once. Nothing a failed save wrote is adopted.
fn save_append(
    what: &Content<'_>,
    path: &Path,
    plan: AppendPlan,
) -> Result<HeapStats, StorageError> {
    use std::io::{Read, Seek, SeekFrom};
    let built = build(what, Some(&plan), plan.committed.slot.generation + 1)?;
    let slot_at = (PREAMBLE_LEN + SLOT_LEN * (1 - plan.committed.which)) as u64;
    // Once committed, the superseded state keeps nothing.
    let keep_end = plan
        .live_end
        .max(end_of(&state_extents(&built.slot, &built.blocks)));
    let mut f = fault::open_rw(path)?;
    let mut older = [0u8; SLOT_LEN];
    f.seek(SeekFrom::Start(slot_at))?;
    f.read_exact(&mut older)?;
    for (off, pieces) in &built.writes {
        f.seek(SeekFrom::Start(*off))?;
        fault::write_pieces(&mut f, pieces)?;
    }
    fault::sync(&f)?;
    let commit = (|| -> Result<(), StorageError> {
        f.seek(SeekFrom::Start(slot_at))?;
        fault::write_all(&mut f, &built.slot.to_bytes())?;
        fault::sync(&f)?;
        fault::set_len(&f, keep_end)?;
        Ok(())
    })();
    if let Err(e) = commit {
        // Best-effort, like any undo: a process that died cannot, and then
        // the slot it tore is invalid or names a state that is whole.
        let undo = |f: &mut std::fs::File| -> std::io::Result<()> {
            f.seek(SeekFrom::Start(slot_at))?;
            fault::write_all(f, &older)?;
            fault::sync(f)
        };
        let _ = undo(&mut f);
        return Err(e);
    }
    // Only now — the file is committed — may fresh slots adopt their
    // on-disk locations.
    let stats = heap_stats_of(keep_end, &built.slot, &built.blocks);
    settle(path, what, built, SegSlot::attach_disk)?;
    Ok(stats)
}

/// The generation a full rewrite of `path` commits: one past the file it
/// replaces, so a path's generations only ever rise.
fn next_generation(path: &Path) -> u64 {
    Opened::file(path).map_or(1, |o| o.tail.slot.generation + 1)
}

/// Full-rewrite save: a fresh image through [`write_atomic`].
fn save_rewrite(what: &Content<'_>, path: &Path) -> Result<(), StorageError> {
    let mut built = build(what, None, next_generation(path))?;
    write_atomic(path, &built.image())?;
    settle(path, what, built, SegSlot::attach_disk)
}

/// Saves `what` to `path` under the file's save lock: an append-save when
/// the file can take one, else a full rewrite. An append-save that leaves
/// the file due for a vacuum ([`crate::vacuum::due`]) compacts it before
/// the lock is released. The append has committed by then, so a failed
/// compaction is not the save's failure: the file stays as the append
/// left it, and the next save's trigger tries again.
pub(crate) fn save_content(what: &Content<'_>, path: &Path) -> Result<(), StorageError> {
    let lock = wal::path_lock(path);
    let _guard = lock.lock().unwrap_or_else(|e| e.into_inner());
    match append_plan(what, path) {
        Some(plan) => {
            if crate::vacuum::due(&save_append(what, path, plan)?) {
                let _ = rewrite_compacted(what, path);
            }
            Ok(())
        }
        None => save_rewrite(what, path),
    }
}

/// Compacts `what` into a fresh image at `path` via [`write_atomic`], then
/// *rebinds* every live slot to its location in the compacted file (the
/// vacuum path — offsets move, so this overwrites existing `DiskLoc`s
/// rather than attach-once). The caller must hold the file's
/// [`wal::path_lock`]. Returns `(before_bytes, after_bytes,
/// live_payload_bytes, segments)`.
pub(crate) fn rewrite_compacted(
    what: &Content<'_>,
    path: &Path,
) -> Result<(u64, u64, u64, usize), StorageError> {
    let before = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    let mut built = build(what, None, next_generation(path))?;
    let image = built.image();
    write_atomic(path, &image)?;
    let after = image.iter().map(|p| p.len() as u64).sum();
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

// ---------------------------------------------------------------------------
// What this process knows about the files it wrote or read.
// ---------------------------------------------------------------------------

/// A catalog file's committed state, as this process wrote or decoded it.
struct Committed {
    /// The slot that committed it: the blocks are trusted only while the
    /// file's committed slot is exactly this one.
    slot: Slot,
    /// Each block, with the table it was written from or decoded into.
    blocks: Vec<(Weak<Table>, BlockAt)>,
}

/// What this process knows about one file, by inode.
#[derive(Default)]
struct Known {
    committed: Option<Committed>,
    /// Every payload source bound to the file, with the extents bound
    /// through it. While a source lives, a slot may still fault in from
    /// any of them, so no save may overwrite them.
    sources: Vec<(Weak<PayloadSource>, Extents)>,
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

/// Records that slots bound through `source` fault in from `extents`.
fn note_source(source: &Arc<PayloadSource>, extents: Vec<(u64, u64)>) {
    if let Some(id) = source.file_id() {
        let extents = distinct(extents);
        with_known(|k| {
            k.entry(id)
                .or_default()
                .sources
                .push((Arc::downgrade(source), extents))
        });
    }
}

fn note_committed(id: FileId, committed: Committed) {
    with_known(|k| k.entry(id).or_default().committed = Some(committed));
}

/// Every extent a live slot may fault in from in file `id`.
fn bound_extents(id: FileId) -> Vec<(u64, u64)> {
    with_known(|k| {
        k.get(&id)
            .map(|k| {
                k.sources
                    .iter()
                    .flat_map(|(_, e)| e.iter().copied())
                    .collect()
            })
            .unwrap_or_default()
    })
}

/// The blocks of file `id` as this process recorded them, when its
/// committed slot is still `slot`.
fn committed_blocks(id: FileId, slot: &Slot) -> Option<Vec<(Weak<Table>, BlockAt)>> {
    with_known(|k| {
        let c = k.get(&id)?.committed.as_ref()?;
        (c.slot == *slot).then(|| c.blocks.clone())
    })
}

/// The recorded blocks that `tables` can reference as they are, keyed by
/// table.
fn reusable(
    known: &[(Weak<Table>, BlockAt)],
    tables: &[Arc<Table>],
) -> HashMap<*const Table, BlockAt> {
    let by_table: HashMap<*const Table, &BlockAt> =
        known.iter().map(|(t, b)| (t.as_ptr(), b)).collect();
    tables
        .iter()
        .filter_map(|t| {
            let at = Arc::as_ptr(t);
            by_table.get(&at).map(|&b| (at, b.clone()))
        })
        .collect()
}

/// How a file of `file_len` bytes whose committed slot is `slot`, naming
/// `blocks`, divides up (see [`HeapStats`]).
fn heap_stats_of(file_len: u64, slot: &Slot, blocks: &[BlockAt]) -> HeapStats {
    let extents: HashSet<(u64, u64)> = blocks
        .iter()
        .flat_map(|b| b.payloads.iter().copied())
        .collect();
    let live_blocks: u64 = blocks.iter().map(|b| b.len).sum();
    let meta_bytes = (2 * SLOT_LEN) as u64 + live_blocks + slot.index_len;
    let heap_bytes = file_len.saturating_sub(PREAMBLE_LEN as u64 + meta_bytes);
    let live_bytes = extents.iter().map(|&(_, len)| len).sum();
    HeapStats {
        file_bytes: file_len,
        heap_bytes,
        meta_bytes,
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
/// A segment tag's pin bit is column state: it goes to the column that
/// read it ([`EncodedColumn::set_pins`]), never to the shared slot.
type SlotDedup = HashMap<(u64, u64), SegSlot>;

/// Reads one segment's metadata record into a paged-out slot, noting its
/// payload extent in `extents`.
fn get_seg_slot(
    r: &mut Reader<'_>,
    dict_len: usize,
    source: &Arc<PayloadSource>,
    file_len: u64,
    dedup: &mut SlotDedup,
    extents: &mut Vec<(u64, u64)>,
) -> Result<(SegSlot, bool), StorageError> {
    let corrupt = |m: String| StorageError::PersistError(m);
    let tag = r.u8()?;
    let pinned = tag & SEG_FLAG_PINNED != 0;
    let encoding = match tag & !SEG_FLAG_PINNED {
        ENC_BITMAP => Encoding::Bitmap,
        ENC_RLE => Encoding::Rle,
        ENC_PACKED => Encoding::Packed,
        ENC_RANGE => return get_range_slot(r, dict_len).map(|slot| (slot, pinned)),
        _ => return Err(corrupt(format!("unknown segment tag {tag:#04x}"))),
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
    if off < HEADER_LEN || len == 0 || end > file_len {
        return Err(corrupt(format!(
            "segment payload [{off}, {end}) outside the heap [{HEADER_LEN}, {file_len})"
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
        present: Present::List {
            ids: ids.into(),
            ones: ones.into(),
        },
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
        return Ok((shared.clone(), pinned));
    }
    let loc = DiskLoc {
        source: Arc::clone(source),
        offset: off,
        len,
    };
    let slot = SegSlot::on_disk(meta, loc);
    dedup.insert((off, len), slot.clone());
    Ok((slot, pinned))
}

/// Reads a range segment's record, `rows first`, into a resident slot: it
/// has no payload to fault. Its rows are not backed by bytes, so its ids
/// must lie inside `u32` and the dictionary; nothing is sized from them.
fn get_range_slot(r: &mut Reader<'_>, dict_len: usize) -> Result<SegSlot, StorageError> {
    let rows = r.u64()?;
    let first = r.u32()?;
    let end = u64::from(first) + rows;
    if rows == 0 || end > u64::from(u32::MAX) {
        return Err(StorageError::PersistError(format!(
            "a range segment of {rows} rows from id {first} passes u32"
        )));
    }
    if end > dict_len as u64 {
        return Err(StorageError::PersistError(format!(
            "a range segment names ids {first}..{end}, past the dictionary of {dict_len}"
        )));
    }
    let meta = SegMeta::range(first, rows);
    let enc = SegmentEnc::Packed(Arc::new(PackedSegment::range(&meta)));
    Ok(SegSlot::fresh(meta, enc))
}

fn get_column(
    r: &mut Reader<'_>,
    source: &Arc<PayloadSource>,
    file_len: u64,
    dedup: &mut SlotDedup,
    extents: &mut Vec<(u64, u64)>,
) -> Result<EncodedColumn, StorageError> {
    let mut dict_span = span::enter(Span::OpenDict);
    let (ty, dict) = get_dict(r)?;
    dict_span.items(|| {
        if dict.is_dense() {
            0
        } else {
            dict.len() as u64
        }
    });
    drop(dict_span);
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
    let mut meta_span = span::enter(Span::OpenSegMeta);
    for _ in 0..seg_count {
        let (slot, pin) = get_seg_slot(r, dict_len, source, file_len, dedup, extents)?;
        meta_span.items(|| match slot.meta().present {
            Present::List { ref ids, .. } => ids.len() as u64,
            Present::Range { .. } => 0,
        });
        pins.push(pin);
        slots.push(slot);
    }
    drop(meta_span);
    if dict.is_dense() {
        let named = slots.iter().filter_map(|s| s.meta().present.last()).max();
        if named.map(|id| id as usize + 1) != Some(dict_len) {
            return Err(StorageError::PersistError(format!(
                "a dense dictionary of {dict_len} values whose segments name ids up to {named:?}"
            )));
        }
    }
    let mut col = EncodedColumn::from_segments(ty, dict, slots, seg_rows);
    col.set_pins(flags & FLAG_PINNED != 0, pins);
    Ok(col)
}

/// Decodes one table's block; its columns come back paged out. Runs the
/// metadata tier of the invariants only — payloads are validated against
/// their stats as they fault in.
fn get_table(
    r: &mut Reader<'_>,
    source: &Arc<PayloadSource>,
    file_len: u64,
    dedup: &mut SlotDedup,
    extents: &mut Vec<(u64, u64)>,
) -> Result<Table, StorageError> {
    let name = read_str(r)?.to_owned();
    let schema = read_schema(r)?;
    let rows = r.u64()?;
    let mut columns = Vec::with_capacity(schema.arity());
    for _ in 0..schema.arity() {
        let col = get_column(r, source, file_len, dedup, extents)?;
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

/// Reads and validates the index `tail` names. Every count is bounded by
/// the bytes left before anything is sized from it; every block must lie
/// past the slots and inside the file, no two blocks may overlap each
/// other or the index, no name may repeat and nothing may follow the last
/// entry. Returns the catalog version (0 for a table file) and the entries
/// in index order.
fn get_index(tail: &Tail, catalog: bool) -> Result<(u64, Vec<Entry>), StorageError> {
    let bad = |m: String| StorageError::PersistError(m);
    let file_len = tail.file_len;
    let mut r = Reader::new(&tail.index);
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
        if off < HEADER_LEN || len == 0 || off.checked_add(len).is_none_or(|end| end > file_len) {
            return Err(bad(format!(
                "the block of `{name}` at {off} (+{len}) is outside the heap [{HEADER_LEN}, {file_len})"
            )));
        }
        if !names.insert(name.clone()) {
            return Err(bad(format!("the index names `{name}` twice")));
        }
        entries.push((name, off, len));
    }
    r.finish()
        .map_err(|_| bad("trailing bytes after the index".into()))?;
    let (index_off, index_len) = tail.slot.index();
    let mut spans: Vec<(u64, u64)> = entries
        .iter()
        .map(|&(_, off, len)| (off, off + len))
        .chain([(index_off, index_off + index_len)])
        .collect();
    spans.sort_unstable();
    if let Some(w) = spans.windows(2).find(|w| w[0].1 > w[1].0) {
        return Err(bad(format!(
            "extents [{}, {}) and [{}, {}) of the index and its blocks overlap",
            w[0].0, w[0].1, w[1].0, w[1].1
        )));
    }
    Ok((version, entries))
}

/// An opened container: its committed slot and index (all read so far),
/// and the source its blocks and payloads are read from.
struct Opened {
    tail: Tail,
    source: Arc<PayloadSource>,
}

impl Opened {
    /// Opens an in-memory image; blocks and payloads come from `buf`.
    fn image(buf: Bytes) -> Result<Opened, StorageError> {
        let len = buf.len() as u64;
        let source = Arc::new(PayloadSource::Bytes(buf));
        let tail = read_tail(&source, len, None)?;
        Ok(Opened { tail, source })
    }

    /// Opens `path`, reading *only* the preamble, the slots and the index —
    /// the blocks are read by [`Opened::decode`], the payloads never.
    fn file(path: &Path) -> Result<Opened, StorageError> {
        let file = std::fs::File::open(path)?;
        let len = file.metadata()?.len();
        let canon = std::fs::canonicalize(path)?;
        let source = Arc::new(PayloadSource::for_file(file, canon));
        let tail = read_tail(&source, len, Some(path))?;
        Ok(Opened { tail, source })
    }

    /// Decodes every block the index names, in index order: the catalog
    /// version (0 for a table file) and each table with its block. Records
    /// with identical heap locations come back as one shared slot, so
    /// columns shared across tables stay shared — and cached once.
    fn decode(&self, catalog: bool) -> Result<(u64, Vec<(Table, BlockAt)>), StorageError> {
        let (version, entries) = get_index(&self.tail, catalog)?;
        let mut dedup = SlotDedup::new();
        let mut tables = Vec::with_capacity(entries.len());
        for (name, off, len) in entries {
            let block = self.source.read_at(off, len)?;
            let mut r = Reader::new(&block);
            let mut extents = Vec::new();
            let t = get_table(
                &mut r,
                &self.source,
                self.tail.file_len,
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
/// file — read under its save lock.
pub(crate) fn file_heap_stats(path: &Path) -> Result<HeapStats, StorageError> {
    locked(path, |path| {
        let opened = Opened::file(path)?;
        let (_, tables) = match opened.decode(true) {
            Ok(decoded) => decoded,
            Err(catalog_err) => opened.decode(false).map_err(|_| catalog_err)?,
        };
        let blocks: Vec<BlockAt> = tables.into_iter().map(|(_, b)| b).collect();
        Ok(heap_stats_of(
            opened.tail.file_len,
            &opened.tail.slot,
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
    table_image(t)
        .unwrap_or_else(|e| panic!("encode_table: cannot re-read segment payloads: {e}"))
        .concat()
        .into()
}

/// [`encode_table`]'s image as its pieces in order, with a payload that
/// cannot be re-read an error instead of a panic: how the commit log
/// carries a column.
pub(crate) fn table_image(t: &Table) -> Result<Vec<Vec<u8>>, StorageError> {
    Ok(build(&Content::Table(t), None, 1)?.image())
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

/// Runs `read` on `path` under its save lock, so no save can place bytes
/// over what the read is decoding before its slots are known. Nothing is
/// written: the newer valid commit slot names the state that is read.
fn locked<T>(
    path: &Path,
    read: impl FnOnce(&Path) -> Result<T, StorageError>,
) -> Result<T, StorageError> {
    let lock = wal::path_lock(path);
    let _guard = lock.lock().unwrap_or_else(|e| e.into_inner());
    read(path)
}

/// Reads a table from a file. The file opens as metadata only — segment
/// payloads stay on disk and fault in through the buffer cache on first
/// touch. The state read is the one the newer valid commit slot names; an
/// interrupted save left the older one, and opening writes nothing.
pub fn read_table(path: impl AsRef<Path>) -> Result<Table, StorageError> {
    locked(path.as_ref(), read_table_raw)
}

/// [`read_table`] without taking the save lock — for callers (vacuum) that
/// already hold it.
pub(crate) fn read_table_raw(path: &Path) -> Result<Table, StorageError> {
    let opened = Opened::file(path)?;
    let (_, mut tables) = opened.decode(false)?;
    let (t, block) = tables.pop().ok_or_else(eof)?;
    note_source(&opened.source, block.payloads.to_vec());
    Ok(t)
}

/// Serializes all tables of a catalog as one image. Each distinct
/// (`Arc`-shared) segment is stored once, however many table versions
/// reference it.
///
/// # Panics
/// See [`encode_table`].
pub fn encode_catalog(cat: &Catalog) -> Bytes {
    build(&Content::of_catalog(cat), None, 1)
        .unwrap_or_else(|e| panic!("encode_catalog: cannot re-read segment payloads: {e}"))
        .image()
        .concat()
        .into()
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

/// Reads a catalog from a file (lazily — see [`read_table`]).
pub fn read_catalog(path: impl AsRef<Path>) -> Result<Catalog, StorageError> {
    locked(path.as_ref(), read_catalog_raw)
}

/// [`read_catalog`] without taking the save lock — for callers (vacuum,
/// the commit log) that already hold it. The decoded tables become the
/// file's committed state, so saving them back re-encodes only the ones
/// replaced since.
pub(crate) fn read_catalog_raw(path: &Path) -> Result<Catalog, StorageError> {
    let opened = Opened::file(path)?;
    let (version, tables) = opened.decode(true)?;
    let bound = tables.iter().flat_map(|(_, b)| b.payloads.iter().copied());
    note_source(&opened.source, bound.collect());
    let (catalog, blocks) = catalog_of(version, tables);
    if let Some(id) = opened.source.file_id() {
        note_committed(
            id,
            Committed {
                slot: opened.tail.slot,
                blocks,
            },
        );
    }
    Ok(catalog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoded::{Encoding, RecodeScope, RecodeTarget};
    use crate::schema::Schema;
    use crate::store::budget_guard;
    use crate::value::Value;
    use bytes::BytesMut;

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
            .map_columns(Some("v"), |c| c.recode(Encoding::Rle))
            .unwrap()
    }

    /// `multi_segment` with a *mixed directory*: half of `k`'s segments
    /// recoded (and pinned) RLE, the other half left bitmap.
    fn mixed_directory() -> Table {
        let t = multi_segment();
        let segs = t.column_by_name("k").unwrap().segment_count();
        t.map_columns(Some("k"), |c| {
            c.with_encoding(
                RecodeScope::Segments(0..segs / 2),
                RecodeTarget::To(Encoding::Rle),
            )
        })
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

    /// The committed slot and index of an image or a file's bytes.
    fn tail_of(raw: &[u8]) -> Tail {
        let src = PayloadSource::Bytes(Bytes::from(raw.to_vec()));
        read_tail(&src, raw.len() as u64, None).unwrap()
    }

    /// `[start, end)` of the one block of a table image, from its index.
    fn table_block(raw: &[u8]) -> (usize, usize) {
        let tail = tail_of(raw);
        let mut index = Reader::new(&tail.index);
        read_str(&mut index).unwrap();
        let off = index.u64().unwrap() as usize;
        (off, off + index.u64().unwrap() as usize)
    }

    fn file_len(path: &Path) -> u64 {
        std::fs::metadata(path).unwrap().len()
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
            .map_columns(Some("v"), |c| {
                c.with_encoding(RecodeScope::Column, RecodeTarget::To(Encoding::Rle))
            })
            .unwrap();
        let back = decode_table(encode_table(&t)).unwrap();
        // Nothing resident until something touches a payload...
        let (resident, on_disk) = residency(&back);
        assert_eq!(resident, 0, "a decode must not fault payloads in");
        assert!(on_disk > 0);
        // ...yet the full metadata surface is there: zones (derived from
        // the stats), pins, per-segment encodings, stats.
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
            .map_columns(Some("k"), |c| {
                c.with_encoding(RecodeScope::Column, RecodeTarget::To(Encoding::Bitmap))
            })
            .unwrap();
        let back = decode_table(encode_table(&t)).unwrap();
        back.check_invariants().unwrap();
        assert_eq!(back.to_rows(), t.to_rows());
        for (a, b) in t.columns().iter().zip(back.columns()) {
            assert_eq!(a.zones(), b.zones(), "zones derive the same");
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
        pat.extend_from_slice(&HEADER_LEN.to_le_bytes());
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
        assert!(
            raw[tag_off] & !(ENC_RLE | ENC_PACKED | SEG_FLAG_PINNED) == 0,
            "sanity"
        );
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
        let block = block.freeze();
        let at = BlockAt {
            off: HEADER_LEN,
            len: block.len() as u64,
            payloads: Arc::new([]),
        };
        let mut index = Vec::new();
        put_entry(&mut index, "t", &at);
        let slot = Slot {
            generation: 1,
            index_off: at.off + at.len,
            index_len: index.len() as u64,
            index_sum: wal::checksum(&[&index]),
        };
        let mut buf = BytesMut::new();
        buf.put_u32_le(MAGIC);
        buf.put_u16_le(VERSION);
        buf.put_slice(&slot.to_bytes());
        buf.put_slice(&[0; SLOT_LEN]);
        buf.put_slice(block.as_slice());
        buf.put_slice(&index);
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
        let first = file_len(&path);
        // A fresh image ends in its block and index.
        let meta = first - table_block(&std::fs::read(&path).unwrap()).0 as u64;
        let back = read_table(&path).unwrap();
        // Re-saving the unchanged table reuses every payload: it writes a
        // block and an index, and nothing faults in — O(metadata), not
        // O(data). The committed ones must survive until the new ones
        // commit, so the first re-save lands past them; the second takes
        // the space they freed, and the file is cut back.
        save_table(&back, &path).unwrap();
        assert_eq!(file_len(&path), first + meta, "one block and index more");
        save_table(&back, &path).unwrap();
        assert_eq!(file_len(&path), first, "the freed space is reused");
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
        let first = file_len(&path);
        let back = read_table(&path).unwrap();
        // Recode two segments: two fresh payloads, the rest reused.
        let evolved = back
            .map_columns(Some("k"), |c| {
                c.with_encoding(RecodeScope::Segments(0..2), RecodeTarget::To(Encoding::Rle))
            })
            .unwrap();
        save_table(&evolved, &path).unwrap();
        let raw = std::fs::read(&path).unwrap();
        let (block, block_end) = table_block(&raw);
        let recoded: u64 = evolved
            .column_by_name("k")
            .unwrap()
            .segments()
            .iter()
            .take(2)
            .map(|s| payload_encoded_len(&s.enc()) as u64)
            .sum();
        // The new payloads, block and index went past the committed state.
        let appended = (block_end - block) as u64 + tail_of(&raw).slot.index_len + recoded;
        assert_eq!(raw.len() as u64, first + appended, "only what changed");
        // The untouched segments were never read during the save.
        let (_, on_disk) = residency(&back);
        assert!(on_disk > 0, "reused segments stay on disk");
        let again = read_table(&path).unwrap();
        assert_eq!(again.to_rows(), evolved.to_rows());
        std::fs::remove_file(&path).ok();
    }

    /// Free space is first fit around what a save keeps: a gap that holds
    /// an extent takes it, else the space past the end does.
    #[test]
    fn free_space_is_taken_lowest_first() {
        let mut free = FreeList::around(vec![(HEADER_LEN + 40, 10), (HEADER_LEN, 20)]);
        assert_eq!(free.gaps, vec![(HEADER_LEN + 20, HEADER_LEN + 40)]);
        assert_eq!(free.take(30), HEADER_LEN + 50, "too big for the gap");
        assert_eq!(free.take(15), HEADER_LEN + 20);
        assert_eq!(free.take(5), HEADER_LEN + 35, "the gap's rest");
        assert!(free.gaps.is_empty());
        assert_eq!(free.take(1), HEADER_LEN + 80);
    }

    /// An append-save writes into free space — but never over an extent a
    /// live slot is bound to. A table an older snapshot still holds keeps
    /// faulting in its own payloads after later saves replaced it, even
    /// once evicted.
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
            cat.put(t.map_columns(Some("name"), |c| c.recode(enc)).unwrap());
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
        // Format 8 ended in a footer where 9 has two commit slots; it is
        // refused like any other foreign version, not guessed at.
        let mut raw = encode_catalog(&Catalog::new()).as_slice().to_vec();
        raw[4..6].copy_from_slice(&8u16.to_le_bytes());
        for err in [
            decode_catalog(Bytes::from(raw.clone())).map(|_| ()),
            decode_table(Bytes::from(raw)).map(|_| ()),
        ] {
            match err {
                Err(StorageError::PersistError(m)) => assert_eq!(m, "unsupported version 8"),
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
        cat.commit_evolution(2, &["multi".to_string()], vec![])
            .unwrap();
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

        // The field opens the index; a file cut inside it no longer holds
        // what its committed slot names, and is the typed torn tail.
        let raw = std::fs::read(&path).unwrap();
        let index_off = tail_of(&raw).slot.index_off as usize;
        assert_eq!(raw[index_off..index_off + 8], 4u64.to_le_bytes());
        std::fs::write(&path, &raw[..index_off + 5]).unwrap();
        match read_catalog(&path) {
            Err(StorageError::Corrupt(m)) => assert!(m.contains("torn tail"), "{m}"),
            other => panic!(
                "wanted the torn-tail error, got {:?}",
                other.map(|c| c.len())
            ),
        }
        // An image cut there has no path to hint at, and is torn all the
        // same.
        assert!(matches!(
            decode_catalog(Bytes::from(raw[..index_off + 5].to_vec())),
            Err(StorageError::Corrupt(_))
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
