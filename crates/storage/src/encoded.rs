//! The unified column: one column-global dictionary plus **one** segment
//! directory whose entries are individually bitmap, run-length or
//! bit-packed encoded ([`SegmentEnc`]). A clustered prefix of a column can
//! sit in RLE segments while its high-churn suffix stays bitmap, and a
//! near-unique range is packed — the per-*segment* layout choice the
//! per-column chooser of the previous design could not express.
//!
//! Every read of a column's ids or runs goes through one selection walker
//! ([`EncodedColumn::split_by_segment`]), and every segment a write path
//! produces is sealed from its rows' ids, one per row, by one function,
//! [`SegmentEnc::seal`], which counts the segment's stats ([`SegMeta`]) in
//! one pass over the ids and hands them along in a fresh [`SegSlot`]:
//! O(rows + present ids · log). A
//! [`SegmentEnc`] is payload only: every stat the column reads — zones,
//! pruning, the chooser, compaction, sizes — comes from a slot's meta, and
//! `SegmentEnc` is matched only where a payload is read.
//!
//! Writers cut their output at the column's nominal segment size, so each
//! task of an evolution operator writes exactly one output segment:
//! selection-driven writes (filters, slices, compaction, recodes) read one
//! output segment's ids through the walker and seal them
//! ([`EncodedColumn::try_write`]) — RLE when every segment they draw from
//! is RLE, else bitmap or, for near-unique rows, packed — and stream-driven
//! writes (mergence payloads, gathers, builds) compute one segment's ids
//! and seal them in the encoding the stats-driven chooser
//! ([`choose_encoding_from_stats`]) picks for it, so SMOs produce mixed
//! directories for free. A write that reads RLE segments expands their
//! runs into ids, at most one nominal segment's at a time: it costs
//! O(rows), not O(runs).
//!
//! Which encoding a segment has, and whether the chooser may change it, is
//! decided here and nowhere else. Every user-facing re-encode is one call,
//! [`EncodedColumn::with_encoding`], over a [`RecodeScope`] (the column or
//! a segment range) and a [`RecodeTarget`] (one encoding or the chooser);
//! it owns the pin rule. A pin is column state the chooser respects; the
//! segment slots carry none, so they are shared freely. The chooser's own
//! pass, [`EncodedColumn::auto_recoded`], is what `cluster_by` and
//! UNION's compaction run.

use crate::dictionary::Dictionary;
use crate::error::StorageError;
use crate::packed::PackedSegment;
use crate::rle_segment::RleSegment;
use crate::segment::{SealScratch, Segment, Zone};
use crate::span::{self, Span};
use crate::store::{SegMeta, SegSlot};
use crate::value::{Value, ValueType};
use cods_bitmap::{RleSeq, Wah};
use std::borrow::Cow;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// The physical encoding of one segment (or, historically, a whole column).
/// The discriminants index [`EncodingCounts`] and [`Encoding::ALL`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Encoding {
    /// One WAH bitmap per value per segment (the paper's default layout).
    Bitmap = 0,
    /// Run-length encoded value ids per segment (clustered row ranges).
    Rle = 1,
    /// Each row's position among the segment's present ids, bit-packed at
    /// `max(1, bits(distinct − 1))` bits (near-unique row ranges, where a
    /// bitmap per value stops paying).
    Packed = 2,
}

impl Encoding {
    /// Every encoding, in discriminant order.
    pub const ALL: [Encoding; 3] = [Encoding::Bitmap, Encoding::Rle, Encoding::Packed];
}

impl std::fmt::Display for Encoding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Encoding::Bitmap => write!(f, "bitmap"),
            Encoding::Rle => write!(f, "rle"),
            Encoding::Packed => write!(f, "packed"),
        }
    }
}

/// Segments per encoding, indexed by [`Encoding`]: a directory's histogram
/// ([`EncodedColumn::encoding_counts`]) or the chooser's picks. Prints as
/// `2×bitmap/1×rle/0×packed`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EncodingCounts(pub [usize; 3]);

impl std::ops::Index<Encoding> for EncodingCounts {
    type Output = usize;
    fn index(&self, e: Encoding) -> &usize {
        &self.0[e as usize]
    }
}

impl std::ops::IndexMut<Encoding> for EncodingCounts {
    fn index_mut(&mut self, e: Encoding) -> &mut usize {
        &mut self.0[e as usize]
    }
}

impl std::fmt::Display for EncodingCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, e) in Encoding::ALL.iter().enumerate() {
            let sep = if i == 0 { "" } else { "/" };
            write!(f, "{sep}{}\u{d7}{e}", self[*e])?;
        }
        Ok(())
    }
}

/// The segments a recode ([`EncodedColumn::with_encoding`]) covers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecodeScope {
    /// Every segment; the pin it sets or clears is the column's.
    Column,
    /// The segments with indices in the range; the pins it sets or clears
    /// are theirs, and their cache slots'.
    Segments(Range<usize>),
}

/// What a recode ([`EncodedColumn::with_encoding`]) sets its scope to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecodeTarget {
    /// One encoding for every segment, pinned against the chooser.
    To(Encoding),
    /// The chooser's pick for each segment, with the scope's pin cleared.
    Auto,
}

/// The stats-driven encoding choice, shared by the per-segment chooser, the
/// stream-driven writers, and compaction's mixed merge groups.
///
/// RLE pays one fixed-size record per run; WAH bitmaps pay roughly two
/// words per run plus a per-(segment × present value) overhead. RLE
/// therefore wins when runs are long on average (`4·runs ≤ rows`, i.e. a
/// mean run of ≥ 4 rows — clustered or near-clustered data) or when the
/// range is essentially sorted (`runs ≤ 2·(distinct + segments)` with a
/// mean run of at least 2: about one run per distinct value per segment it
/// spans, and genuinely run-compressible — the mean-run guard matters at
/// segment granularity, where a scattered high-cardinality range has
/// `distinct ≈ runs ≈ rows` and would otherwise pass the per-distinct
/// test). Where RLE loses and the range is near-unique (`2·distinct ≥
/// rows`, at most two rows per value on average), a bitmap per value costs
/// its framing for a row or two of bits: such a range is packed, a few
/// bytes per row whatever the values. Everything else — scattered data
/// with values that repeat — stays bitmap, the paper's default layout and
/// the operators' native form.
pub fn choose_encoding_from_stats(runs: u64, rows: u64, distinct: u64, segments: u64) -> Encoding {
    if rows == 0 {
        return Encoding::Bitmap;
    }
    let runs = runs.max(1);
    if 4 * runs <= rows || (runs <= 2 * (distinct + segments) && 2 * runs <= rows) {
        Encoding::Rle
    } else if 2 * distinct >= rows {
        Encoding::Packed
    } else {
        Encoding::Bitmap
    }
}

/// The encoding a write that runs no chooser seals a segment of these
/// stats in — ingest, and selection writes that draw from a bitmap or
/// packed segment: packed where the chooser would pack it (a near-unique
/// segment), else bitmap.
fn bitmap_or_packed(meta: &SegMeta) -> Encoding {
    match meta.choose_encoding() {
        Encoding::Packed => Encoding::Packed,
        _ => Encoding::Bitmap,
    }
}

/// The stats of the segment whose row `r` holds `ids[r]` as a range
/// segment, when `ids[r]` is `first + r` — each id once, in row order, its
/// end inside `u32`. It stops at the first row that breaks the shape: most
/// segments at their second.
fn range_of(ids: &[u32]) -> Option<SegMeta> {
    let &first = ids.first()?;
    let rows = ids.len() as u64;
    if u64::from(first) + rows > u64::from(u32::MAX) {
        return None;
    }
    let range = ids.iter().zip(first..).all(|(&id, want)| id == want);
    range.then(|| SegMeta::range(first, rows))
}

/// The payload of one entry of the unified segment directory: an
/// `Arc`-shared row-range segment in one of the three encodings. It
/// carries no statistics; the segment's [`SegMeta`] does, beside it in its
/// [`SegSlot`].
#[derive(Clone, Debug, PartialEq)]
pub enum SegmentEnc {
    /// Sparse per-value WAH bitmaps over the segment's rows.
    Bitmap(Arc<Segment>),
    /// The segment's run sequence over global value ids.
    Rle(Arc<RleSegment>),
    /// Each row's present-id position, bit-packed.
    Packed(Arc<PackedSegment>),
}

impl SegmentEnc {
    /// Seals one segment from its rows' ids — row `r` holds `ids[r]` — the
    /// one writer under every write path. One counting pass over the ids
    /// and `scratch`'s id-indexed table gives the segment's stats
    /// (`SealScratch::count`); a bitmap payload is then written by a
    /// counting sort of the rows by id (`Segment::from_ids`), a packed one
    /// from each id's position in the count's present ids
    /// (`PackedSegment::from_ids`), and an RLE one is the ids' runs. A
    /// packed segment whose row `r` holds id `first + r` is a range
    /// instead: no count and no codes (`range_of`). The result is a fresh
    /// slot holding both. O(rows + present ids · log).
    pub fn seal(ids: &[u32], encoding: Encoding, scratch: &mut SealScratch) -> SegSlot {
        Self::seal_with(ids, |_| encoding, scratch)
    }

    /// [`SegmentEnc::seal`] in the encoding `pick` names for the stats the
    /// count just took — or, where `pick` packs a segment of the shape, for
    /// the range's.
    fn seal_with(
        ids: &[u32],
        pick: impl Fn(&SegMeta) -> Encoding,
        scratch: &mut SealScratch,
    ) -> SegSlot {
        if let Some(meta) = range_of(ids).filter(|m| pick(m) == Encoding::Packed) {
            let mut span = span::enter(Span::SealRange);
            span.items(|| meta.rows);
            let enc = SegmentEnc::Packed(Arc::new(PackedSegment::range(&meta)));
            return SegSlot::fresh(meta, enc);
        }
        let mut meta = scratch.count(ids);
        meta.encoding = pick(&meta);
        let mut span = span::enter(Span::seal(meta.encoding));
        span.items(|| meta.rows);
        let enc = match meta.encoding {
            Encoding::Bitmap => {
                SegmentEnc::Bitmap(Arc::new(Segment::from_ids(ids, &mut meta, scratch)))
            }
            Encoding::Rle => {
                let seq: RleSeq = ids.iter().copied().collect();
                meta.bytes = seq.size_bytes();
                SegmentEnc::Rle(Arc::new(RleSegment::new(seq)))
            }
            Encoding::Packed => {
                let code = scratch.codes(meta.present.list().0);
                SegmentEnc::Packed(Arc::new(PackedSegment::from_ids(ids, &mut meta, code)))
            }
        };
        scratch.reset();
        SegSlot::fresh(meta, enc)
    }

    /// The segment's encoding.
    pub(crate) fn encoding(&self) -> Encoding {
        match self {
            SegmentEnc::Bitmap(_) => Encoding::Bitmap,
            SegmentEnc::Rle(_) => Encoding::Rle,
            SegmentEnc::Packed(_) => Encoding::Packed,
        }
    }

    /// Reads the rows of `piece` — intervals of the column's rows, this
    /// `rows`-row segment starting at row `start` — into `sink`. A bitmap
    /// segment decodes once: straight into the sink when it is wholly
    /// selected and the sink keeps ids, else into `scratch` up to the
    /// piece's last row and no further, and the selected pieces are copied
    /// from there. A packed segment unpacks only the
    /// selected rows, straight into the sink when it is wholly selected; a
    /// range hands each interval `a..b` over as the ids `first + a ..
    /// first + b`, reading nothing. An RLE segment's runs are merged
    /// against the intervals, in O(runs + intervals).
    pub(crate) fn read_in(
        &self,
        rows: u64,
        start: u64,
        piece: &[(u64, u64)],
        sink: &mut impl SelSink,
        scratch: &mut Vec<u32>,
    ) -> Result<(), StorageError> {
        let range = match self {
            SegmentEnc::Packed(s) => s.range_first(),
            _ => None,
        };
        let label = match range {
            Some(_) => Span::WalkRange,
            None => Span::walk(self.encoding()),
        };
        let mut span = span::enter(label);
        span.items(|| piece.iter().map(|&(a, b)| b - a).sum());
        if let Some(first) = range {
            // Row `r` holds `first + r`: each piece is an id interval.
            for &(a, b) in piece {
                sink.id_range(first + (a - start) as u32, b - a);
            }
            return Ok(());
        }
        let whole = piece == [(start, start + rows)];
        match self {
            SegmentEnc::Bitmap(s) => {
                if whole {
                    if let Some(dst) = sink.whole_segment(rows as usize) {
                        return s.fill_covering(dst);
                    }
                }
                let end = piece.last().map_or(start, |&(_, b)| b);
                scratch.clear();
                scratch.resize((end - start) as usize, u32::MAX);
                s.fill_covering(scratch)?;
                for &(a, b) in piece {
                    sink.ids(&scratch[(a - start) as usize..(b - start) as usize]);
                }
            }
            SegmentEnc::Packed(s) => {
                if whole {
                    if let Some(dst) = sink.whole_segment(rows as usize) {
                        s.ids_into(0, dst);
                        return Ok(());
                    }
                }
                for &(a, b) in piece {
                    scratch.clear();
                    scratch.resize((b - a) as usize, 0);
                    s.ids_into(a - start, scratch);
                    sink.ids(scratch);
                }
            }
            SegmentEnc::Rle(s) => {
                let mut ivs = piece.iter().peekable();
                let mut pos = start;
                for &(id, n) in s.seq().runs() {
                    let end = pos + n;
                    while let Some(&&(a, b)) = ivs.peek() {
                        if a >= end {
                            break;
                        }
                        sink.run(id, b.min(end) - a.max(pos));
                        if b > end {
                            break;
                        }
                        ivs.next();
                    }
                    if ivs.peek().is_none() {
                        break;
                    }
                    pos = end;
                }
            }
        }
        Ok(())
    }

    /// Recounts the segment's stats from its payload
    /// ([`Segment::recount`], [`RleSegment::recount`],
    /// [`PackedSegment::recount`]).
    pub fn recount(&self) -> Result<SegMeta, String> {
        match self {
            SegmentEnc::Bitmap(s) => s.recount(),
            SegmentEnc::Rle(s) => Ok(s.recount()),
            SegmentEnc::Packed(s) => s.recount(),
        }
    }
}

// ---------------------------------------------------------------------
// The unified column
// ---------------------------------------------------------------------

fn starts_of(segments: &[SegSlot]) -> (Vec<u64>, u64) {
    let mut starts = Vec::with_capacity(segments.len());
    let mut total = 0u64;
    for s in segments {
        starts.push(total);
        total += s.meta().rows;
    }
    (starts, total)
}

/// A column's per-segment zone maps, derived on first use
/// ([`EncodedColumn::zones`]). A cache, not state: any two compare equal.
#[derive(Clone, Debug, Default)]
struct ZoneCache(OnceLock<Box<[Zone]>>);

impl PartialEq for ZoneCache {
    fn eq(&self, _: &ZoneCache) -> bool {
        true
    }
}

/// An immutable segmented column: a column-global dictionary plus one
/// directory of `Arc`-shared row-range segments, each in its own encoding
/// ([`SegmentEnc`]), with per-segment encoding pins.
#[derive(Clone, Debug, PartialEq)]
pub struct EncodedColumn {
    ty: ValueType,
    dict: Dictionary,
    segments: Vec<SegSlot>,
    /// Start row of each segment (parallel to `segments`).
    starts: Vec<u64>,
    /// Per-segment zone maps, empty until first read. The one constructor
    /// starts it empty; a clone keeps it, which is right because a clone
    /// only ever changes encodings or pins, never present ids or values.
    zones: ZoneCache,
    /// Per-segment encoding pins (parallel to `segments`): a segment pinned
    /// by an explicit segment-range recode is skipped by the chooser.
    /// Reset on structure-destroying rebuilds (filter/gather), which cannot
    /// map old boundaries onto new ones.
    seg_pins: Vec<bool>,
    /// Nominal rows per segment for newly produced data.
    segment_rows: u64,
    rows: u64,
    /// Column-level pin, set by an explicit whole-column recode: the
    /// adaptive chooser leaves every segment of a pinned column alone.
    pinned: bool,
}

impl EncodedColumn {
    // ---- constructors ----

    /// Builds a column from a value slice with the default segment size, in
    /// the ingest encodings ([`ColumnBuilder`]).
    pub fn from_values(ty: ValueType, values: &[Value]) -> Result<EncodedColumn, StorageError> {
        Self::from_values_with(ty, values, crate::segment::DEFAULT_SEGMENT_ROWS)
    }

    /// Builds a column from a value slice with an explicit segment size.
    pub fn from_values_with(
        ty: ValueType,
        values: &[Value],
        segment_rows: u64,
    ) -> Result<EncodedColumn, StorageError> {
        let mut b = ColumnBuilder::with_segment_rows(ty, segment_rows);
        for v in values {
            b.push(v.clone())?;
        }
        Ok(b.finish())
    }

    /// Builds a column from a dictionary and a dense row → id array, in
    /// bitmap segments of `segment_rows` rows.
    ///
    /// # Panics
    /// Panics if any id is out of range for the dictionary.
    pub fn from_ids_with(
        ty: ValueType,
        dict: Dictionary,
        ids: &[u32],
        segment_rows: u64,
    ) -> EncodedColumn {
        assert!(segment_rows > 0, "segment size must be positive");
        if let Some(&bad) = ids.iter().find(|&&id| id as usize >= dict.len()) {
            panic!("id {bad} out of range for dictionary of {}", dict.len());
        }
        let mut scratch = SealScratch::default();
        let segments = ids
            .chunks(segment_rows as usize)
            .map(|chunk| SegmentEnc::seal(chunk, Encoding::Bitmap, &mut scratch))
            .collect();
        Self::from_segments(ty, dict, segments, segment_rows)
    }

    /// Assembles an unpinned column from a dictionary and segments assumed
    /// consistent, without compaction — every column is built here. Callers
    /// that cannot assume consistency (e.g. decoding from disk) must run
    /// [`EncodedColumn::check_invariants`] afterwards.
    pub fn from_segments(
        ty: ValueType,
        dict: Dictionary,
        segments: Vec<SegSlot>,
        segment_rows: u64,
    ) -> EncodedColumn {
        let (starts, rows) = starts_of(&segments);
        let seg_pins = vec![false; segments.len()];
        EncodedColumn {
            ty,
            dict,
            segments,
            starts,
            zones: ZoneCache::default(),
            seg_pins,
            segment_rows,
            rows,
            pinned: false,
        }
    }

    /// Assembles a column from a dictionary and already-built segments,
    /// compacting the dictionary to the values actually present — the
    /// constructor the segment-parallel operators funnel into. A segment
    /// whose ids must be translated but whose payload cannot be faulted in
    /// is a typed error.
    pub fn from_segments_compacting(
        ty: ValueType,
        dict: Dictionary,
        segments: Vec<SegSlot>,
        segment_rows: u64,
    ) -> Result<EncodedColumn, StorageError> {
        let mut present = vec![false; dict.len()];
        for seg in &segments {
            match seg.meta().present.range() {
                Some(ids) => present[ids.start as usize..ids.end as usize].fill(true),
                None => {
                    for id in seg.meta().present.ids() {
                        present[id as usize] = true;
                    }
                }
            }
        }
        if present.iter().all(|&p| p) {
            return Ok(Self::from_segments(ty, dict, segments, segment_rows));
        }
        let (dict, mapping) = dict.compact(|id| present[id as usize]);
        let segments = segments.iter().map(|s| s.remap(&mapping));
        let segments = segments.collect::<Result<_, _>>()?;
        Ok(Self::from_segments(ty, dict, segments, segment_rows))
    }

    // ---- geometry and statistics ----

    /// Column type.
    pub fn ty(&self) -> ValueType {
        self.ty
    }

    /// Number of rows.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// The dictionary.
    pub fn dict(&self) -> &Dictionary {
        &self.dict
    }

    /// Number of distinct values (dictionary size).
    pub fn distinct_count(&self) -> usize {
        self.dict.len()
    }

    /// The unified segment directory: demand-paged slots whose metadata is
    /// always resident but whose payloads may live on disk.
    pub fn segments(&self) -> &[SegSlot] {
        &self.segments
    }

    /// Number of row-range segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Row counts of every segment, in order.
    pub fn segment_sizes(&self) -> Vec<u64> {
        self.segments.iter().map(|s| s.meta().rows).collect()
    }

    /// The physical encoding of segment `idx`.
    pub fn segment_encoding(&self, idx: usize) -> Encoding {
        self.segments[idx].meta().encoding
    }

    /// The directory's encoding histogram: segments per encoding.
    pub fn encoding_counts(&self) -> EncodingCounts {
        let mut counts = EncodingCounts::default();
        for s in &self.segments {
            counts[s.meta().encoding] += 1;
        }
        counts
    }

    /// The single encoding every segment shares, when the directory is
    /// homogeneous. An empty directory counts as uniformly bitmap (the
    /// default layout new data lands in).
    pub fn uniform_encoding(&self) -> Option<Encoding> {
        let mut it = self.segments.iter().map(|s| s.meta().encoding);
        let first = match it.next() {
            None => return Some(Encoding::Bitmap),
            Some(e) => e,
        };
        it.all(|e| e == first).then_some(first)
    }

    /// Returns `true` when every segment is in `encoding` (vacuously true
    /// for an empty directory).
    pub fn is_uniform(&self, encoding: Encoding) -> bool {
        self.segments.is_empty() || self.uniform_encoding() == Some(encoding)
    }

    /// The nominal segment size new data is chunked at.
    pub fn nominal_segment_rows(&self) -> u64 {
        self.segment_rows
    }

    /// Index of the segment containing `row`.
    pub fn segment_of_row(&self, row: u64) -> usize {
        debug_assert!(row < self.rows);
        self.starts.partition_point(|&s| s <= row) - 1
    }

    /// Per-segment zone maps, parallel to [`EncodedColumn::segments`]. The
    /// first call derives them from each segment's present ids and the
    /// dictionary's value order — stats only, never a payload — and every
    /// table version sharing this column shares the result.
    pub fn zones(&self) -> &[Zone] {
        self.zones.0.get_or_init(|| {
            if self.segments.is_empty() {
                return Box::default();
            }
            let ranks = self.dict.value_order().rank_table();
            self.segments
                .iter()
                .map(|s| Zone::of_present(&s.meta().present, ranks))
                .collect()
        })
    }

    /// The zone map of segment `idx`.
    pub fn zone(&self, idx: usize) -> Zone {
        self.zones()[idx]
    }

    /// Distinct values present in the densest segment (≤ `distinct_count`).
    pub fn max_segment_distinct(&self) -> usize {
        self.segments
            .iter()
            .map(|s| s.meta().distinct_count())
            .max()
            .unwrap_or(0)
    }

    /// Total maximal constant-value runs across the directory, summed from
    /// per-segment stats (exact RLE runs; compressed WAH interval walks).
    pub fn run_count(&self) -> u64 {
        self.segments.iter().map(|s| s.meta().runs).sum()
    }

    // ---- pins, the chooser and the one recode ----

    /// Returns `true` when the whole column's encoding was pinned by an
    /// explicit recode (the adaptive chooser leaves pinned columns alone).
    pub fn encoding_pinned(&self) -> bool {
        self.pinned
    }

    /// Returns `true` when segment `idx` is pinned — by a segment-range
    /// recode or because the whole column is.
    pub fn segment_pinned(&self, idx: usize) -> bool {
        self.pinned || self.seg_pins[idx]
    }

    /// `true` when `other` is this column unchanged: the same dictionary,
    /// the same slots in order, the same nominal segment size and the same
    /// pins — what lets a table keep sharing the original
    /// ([`crate::table::Table::map_columns`]).
    pub(crate) fn same_as(&self, other: &EncodedColumn) -> bool {
        self.ty == other.ty
            && self.dict.same_as(&other.dict)
            && self.segment_rows == other.segment_rows
            && self.pinned == other.pinned
            && self.seg_pins == other.seg_pins
            && self.segments.len() == other.segments.len()
            && self
                .segments
                .iter()
                .zip(&other.segments)
                .all(|(a, b)| a.ptr_eq(b))
    }

    /// Copies chooser-relevant metadata (the column pin) from the source
    /// column a structurally rebuilt column was derived from. Per-segment
    /// pins cannot survive a rebuild (old boundaries are gone) and reset.
    fn with_meta_of(mut self, src: &EncodedColumn) -> EncodedColumn {
        self.pinned = src.pinned;
        self
    }

    /// The column-aggregate chooser pick: weighs total runs against rows,
    /// distinct count, and segment count. Kept for `stats` display; the
    /// chooser itself decides segment by segment
    /// ([`SegMeta::choose_encoding`]).
    pub fn choose_encoding(&self) -> Encoding {
        if self.rows == 0 {
            return Encoding::Bitmap;
        }
        choose_encoding_from_stats(
            self.run_count(),
            self.rows,
            self.distinct_count() as u64,
            self.segment_count() as u64,
        )
    }

    /// The encoding an operator seals a fresh output segment in, given the
    /// segment's own statistics: a pinned uniform column forces its
    /// encoding; otherwise the per-segment chooser decides.
    fn chunk_encoding(&self, runs: u64, rows: u64, distinct: u64) -> Encoding {
        if self.pinned {
            if let Some(e) = self.uniform_encoding() {
                return e;
            }
        }
        choose_encoding_from_stats(runs, rows, distinct, 1)
    }

    /// Re-encodes every segment `pick` names an encoding for, sharing each
    /// slot that is already in it. Values, dictionary, boundaries, zones
    /// and pins are preserved.
    fn transcoded(
        &self,
        pick: impl Fn(usize, &SegMeta) -> Option<Encoding>,
    ) -> Result<EncodedColumn, StorageError> {
        let mut out = self.clone();
        let mut scratch = SealScratch::default();
        for (idx, seg) in out.segments.iter_mut().enumerate() {
            if let Some(encoding) = pick(idx, seg.meta()) {
                *seg = seg.recoded_with(encoding, &mut scratch)?;
            }
        }
        Ok(out)
    }

    /// The chooser pass: every unpinned segment re-encoded to its own pick
    /// ([`SegMeta::choose_encoding`]); pinned segments, and every segment
    /// of a column-pinned column, are left alone. `cluster_by` runs it
    /// after its rewrite, UNION after its threshold-triggered compaction.
    pub fn auto_recoded(&self) -> Result<EncodedColumn, StorageError> {
        if self.pinned {
            return Ok(self.clone());
        }
        self.transcoded(|idx, meta| (!self.seg_pins[idx]).then(|| meta.choose_encoding()))
    }

    /// Re-encodes every segment to `encoding`, setting no pin: the
    /// transcode under an explicit whole-column recode, public for
    /// fixtures that want a layout without a pin.
    pub fn recode(&self, encoding: Encoding) -> Result<EncodedColumn, StorageError> {
        self.transcoded(|_, _| Some(encoding))
    }

    /// The one user-facing re-encode (the CLI's `recode`), applying the
    /// pin rule:
    /// - an explicit whole-column recode pins the column;
    /// - an explicit range recode pins those segments;
    /// - [`RecodeTarget::Auto`] clears the pin at its own scope and
    ///   re-chooses every segment in that scope that is not pinned at a
    ///   finer level.
    ///
    /// A pin is this column's state and says nothing to the buffer cache:
    /// a slot already in the target encoding is kept as it is, shared with
    /// any table copy or earlier version. A range past the last segment is
    /// an error.
    pub fn with_encoding(
        &self,
        scope: RecodeScope,
        target: RecodeTarget,
    ) -> Result<EncodedColumn, StorageError> {
        let explicit = matches!(target, RecodeTarget::To(_));
        let range = match scope {
            RecodeScope::Column => {
                let mut out = match target {
                    RecodeTarget::To(encoding) => self.recode(encoding)?,
                    RecodeTarget::Auto => EncodedColumn {
                        pinned: false,
                        ..self.clone()
                    }
                    .auto_recoded()?,
                };
                out.pinned = explicit;
                return Ok(out);
            }
            RecodeScope::Segments(range) => range,
        };
        if range.start > range.end || range.end > self.segments.len() {
            return Err(StorageError::RowMismatch(format!(
                "segment range {}..{} out of bounds for {} segments",
                range.start,
                range.end,
                self.segments.len()
            )));
        }
        let mut out = self.transcoded(|idx, meta| {
            range.contains(&idx).then_some(match target {
                RecodeTarget::To(encoding) => encoding,
                RecodeTarget::Auto => meta.choose_encoding(),
            })
        })?;
        out.seg_pins[range].fill(explicit);
        Ok(out)
    }

    // ---- data access ----

    /// The value stored at `row` (point probe; intended for display and
    /// debugging, not bulk scans — use [`EncodedColumn::value_ids`]).
    pub fn value_at(&self, row: u64) -> Cow<'_, Value> {
        assert!(row < self.rows, "row {row} out of range {}", self.rows);
        let seg_idx = self.segment_of_row(row);
        let local = row - self.starts[seg_idx];
        let id = match self.segments[seg_idx].enc() {
            SegmentEnc::Bitmap(s) => s
                .id_at(local)
                .expect("partition invariant violated: row has no value"),
            SegmentEnc::Rle(s) => s.seq().get(local),
            SegmentEnc::Packed(s) => s.id_at(local),
        };
        self.dict.value(id)
    }

    /// Materializes the dense row → value-id array in one pass over the
    /// compressed payloads (O(rows + compressed words)). The
    /// sequential-scan primitive of the CODS algorithms: it never touches
    /// dictionary values, only ids. A segment that cannot be faulted in or
    /// whose bitmaps leave a row uncovered is a typed error.
    pub fn try_value_ids(&self) -> Result<Vec<u32>, StorageError> {
        let whole = [(0, self.rows)];
        self.try_ids_in(if self.rows == 0 { &[] } else { &whole })
    }

    /// [`EncodedColumn::try_value_ids`] for display and tests: panics where
    /// it errs.
    pub fn value_ids(&self) -> Vec<u32> {
        self.try_value_ids()
            .unwrap_or_else(|e| panic!("segment fault failed: {e}"))
    }

    // ---- the selection walker ----
    //
    // A *selection* is a list of ascending, disjoint, non-empty `(start,
    // end)` row intervals — what `Wah::iter_intervals` yields for a mask.
    // Every read of a column's ids or runs maps its selection onto the
    // segment directory in `split_by_segment`, and faults each overlapping
    // segment once.

    /// The row range segment `idx` covers.
    pub fn segment_range(&self, idx: usize) -> Range<u64> {
        self.starts[idx]..self.starts[idx] + self.segments[idx].meta().rows
    }

    /// Splits a selection along the segment directory — the overlap walk
    /// under every selection read: one entry per segment holding a
    /// selected row, in order, with its index and the selection's
    /// intervals clipped to its rows. Reads metadata only, and jumps the
    /// segments between intervals by binary search, so a segment with no
    /// selected row costs nothing.
    ///
    /// # Panics
    /// Panics when the selection reaches past the last row.
    pub fn split_by_segment(&self, sel: &[(u64, u64)]) -> Vec<(usize, Vec<(u64, u64)>)> {
        debug_assert!(
            sel.iter().all(|&(a, b)| a < b) && sel.windows(2).all(|w| w[0].1 <= w[1].0),
            "a selection is ascending, disjoint and non-empty: {sel:?}"
        );
        if let Some(&(_, end)) = sel.last() {
            assert!(
                end <= self.rows,
                "selection ending at {end} out of bounds for {} rows",
                self.rows
            );
        }
        let mut out = Vec::new();
        let (mut i, mut walked) = (0usize, 0u64);
        while i < sel.len() {
            let seg = self.segment_of_row(sel[i].0.max(walked));
            let Range { start, end } = self.segment_range(seg);
            let mut piece = Vec::new();
            while i < sel.len() && sel[i].0 < end {
                let (a, b) = sel[i];
                piece.push((a.max(start), b.min(end)));
                if b > end {
                    // Runs on into the next segment.
                    break;
                }
                i += 1;
            }
            out.push((seg, piece));
            walked = end;
        }
        out
    }

    /// The value ids of the selected rows, concatenated in row order. A
    /// segment that cannot be faulted in (I/O error, corrupt payload) is a
    /// typed error; panics as [`EncodedColumn::split_by_segment`].
    pub fn try_ids_in(&self, sel: &[(u64, u64)]) -> Result<Vec<u32>, StorageError> {
        let selected: u64 = sel.iter().map(|&(a, b)| b - a).sum();
        let mut out = Vec::with_capacity(selected as usize);
        self.read_in(sel, &mut out)?;
        Ok(out)
    }

    /// The selected rows as maximal `(value id, length)` runs, coalesced
    /// across segment boundaries and across the gaps between intervals
    /// (the selected rows are read as one sequence). RLE segments hand over
    /// their runs without touching per-row data, so a clustered column
    /// costs O(runs), not O(rows) — the accessor the group-by kernel
    /// aggregates over. Errors and panics as [`EncodedColumn::try_ids_in`].
    pub fn try_runs_in(&self, sel: &[(u64, u64)]) -> Result<Vec<(u32, u64)>, StorageError> {
        let mut out = Vec::new();
        self.read_in(sel, &mut out)?;
        Ok(out)
    }

    /// Reads the selected rows into `sink`, one fault per overlapping
    /// segment ([`SegmentEnc::read_in`]).
    fn read_in(&self, sel: &[(u64, u64)], sink: &mut impl SelSink) -> Result<(), StorageError> {
        let mut scratch: Vec<u32> = Vec::new();
        for (seg, piece) in self.split_by_segment(sel) {
            let slot = &self.segments[seg];
            slot.try_enc()?.read_in(
                slot.meta().rows,
                self.starts[seg],
                &piece,
                sink,
                &mut scratch,
            )?;
        }
        Ok(())
    }

    /// Decodes all rows to values (display/test helper).
    pub fn values(&self) -> Vec<Value> {
        self.value_ids()
            .into_iter()
            .map(|id| self.dict.value(id).into_owned())
            .collect()
    }

    /// Materializes the full-length bitmap of value id `id` by splicing the
    /// per-segment payloads (zero fills where the value is absent).
    pub fn value_bitmap(&self, id: u32) -> Wah {
        let mut out = Wah::new();
        for seg in &self.segments {
            // Present-id stats answer "absent here" without faulting the
            // payload — a value probe only pages in segments that carry it.
            let meta = seg.meta();
            let Some(i) = meta.position_of(id) else {
                out.append_run(false, meta.rows);
                continue;
            };
            if meta.is_range() {
                // Row `i` holds the id, and no other row does.
                out.append_run(false, i as u64);
                out.append_run(true, 1);
                out.append_run(false, meta.rows - i as u64 - 1);
                continue;
            }
            match seg.enc() {
                SegmentEnc::Bitmap(s) => out.append_bitmap(s.bitmap(i)),
                SegmentEnc::Rle(s) => s.append_value_bitmap(id, &mut out),
                SegmentEnc::Packed(s) => {
                    let mut hit = vec![false; meta.distinct_count()];
                    hit[i] = true;
                    s.append_mask(&hit, &mut out);
                }
            }
        }
        out
    }

    /// Number of rows carrying value id `id` (from segment stats; never
    /// touches payload).
    pub fn value_count(&self, id: u32) -> u64 {
        self.segments.iter().map(|s| s.meta().count_for(id)).sum()
    }

    // ---- the writers ----
    //
    // A write produces one output segment per call, so operators fan out
    // one task per (column × output segment): the ids of one segment's
    // rows, read through the selection walker or computed by a stream,
    // sealed by `SegmentEnc::seal`. Output is cut at the nominal segment
    // size, and `derived` turns a column's segments into the column.

    /// Seals the rows `ids` a selection-driven write read from `sel` in
    /// the default encoding: RLE when every segment the selection draws
    /// rows from is RLE (decided from metadata), else bitmap, or packed
    /// where the written rows are near-unique ([`bitmap_or_packed`]).
    fn seal_drawn(&self, sel: &[(u64, u64)], ids: &[u32], scratch: &mut SealScratch) -> SegSlot {
        let all_rle = self
            .split_by_segment(sel)
            .iter()
            .all(|(seg, _)| self.segments[*seg].meta().encoding == Encoding::Rle);
        if all_rle {
            SegmentEnc::seal(ids, Encoding::Rle, scratch)
        } else {
            SegmentEnc::seal_with(ids, bitmap_or_packed, scratch)
        }
    }

    /// Writes the selected rows as one segment: their ids, read through
    /// the selection walker (a wholly selected bitmap segment decodes
    /// straight into them), sealed in `encoding` — by default RLE when
    /// every segment they come from is RLE, else bitmap, or packed where
    /// the rows are near-unique. The write side of bitmap filtering,
    /// slicing, compaction and recoding. A segment that cannot be faulted
    /// in or whose bitmaps leave a row uncovered is a typed error; panics
    /// as [`EncodedColumn::split_by_segment`].
    pub fn try_write(
        &self,
        sel: &[(u64, u64)],
        encoding: Option<Encoding>,
        scratch: &mut SealScratch,
    ) -> Result<SegSlot, StorageError> {
        let ids = self.try_ids_in(sel)?;
        Ok(match encoding {
            Some(e) => SegmentEnc::seal(&ids, e, scratch),
            None => self.seal_drawn(sel, &ids, scratch),
        })
    }

    /// [`EncodedColumn::try_write`] over the rows a non-decreasing position
    /// list names, in the default encoding: the positions are deduped into
    /// a selection, and a repeated position repeats its row.
    ///
    /// # Panics
    /// Panics when the positions decrease, and as
    /// [`EncodedColumn::split_by_segment`].
    pub fn try_write_positions(
        &self,
        positions: &[u64],
        scratch: &mut SealScratch,
    ) -> Result<SegSlot, StorageError> {
        let mut sel: Vec<(u64, u64)> = Vec::new();
        for &p in positions {
            match sel.last_mut() {
                Some((_, end)) if *end == p => *end += 1,
                Some((_, end)) if *end > p => {
                    assert_eq!(*end, p + 1, "positions must be non-decreasing");
                }
                _ => sel.push((p, p + 1)),
            }
        }
        let distinct: u64 = sel.iter().map(|&(a, b)| b - a).sum();
        if distinct == positions.len() as u64 {
            return self.try_write(&sel, None, scratch);
        }
        let read = self.try_ids_in(&sel)?;
        let mut ids = Vec::with_capacity(positions.len());
        let mut k = 0;
        for (i, &p) in positions.iter().enumerate() {
            if i > 0 && p != positions[i - 1] {
                k += 1;
            }
            ids.push(read[k]);
        }
        Ok(self.seal_drawn(&sel, &ids, scratch))
    }

    /// Seals one output segment an operator computed as a stream of ids:
    /// in a pinned uniform column's encoding, else in the one the chooser
    /// picks for the segment's own statistics, read off the seal's one
    /// count.
    pub fn seal_stream(&self, ids: &[u32], scratch: &mut SealScratch) -> SegSlot {
        let pick = |m: &SegMeta| self.chunk_encoding(m.runs, m.rows, m.distinct_count() as u64);
        SegmentEnc::seal_with(ids, pick, scratch)
    }

    /// Cuts a selection mask into the selections of the output segments a
    /// filter by it writes: its set rows in order, the nominal segment size
    /// at a time. One pass over the mask's compressed intervals.
    pub fn cut_mask(&self, mask: &Wah) -> Vec<Vec<(u64, u64)>> {
        assert_eq!(mask.len(), self.rows, "mask length mismatch");
        let mut out = Vec::new();
        let mut cur = Vec::new();
        let mut room = self.segment_rows;
        for (mut start, mut len) in mask.iter_intervals() {
            while len > 0 {
                let take = len.min(room);
                cur.push((start, start + take));
                start += take;
                len -= take;
                room -= take;
                if room == 0 {
                    out.push(std::mem::take(&mut cur));
                    room = self.segment_rows;
                }
            }
        }
        if !cur.is_empty() {
            out.push(cur);
        }
        out
    }

    /// The column freshly written `segments` make, in order: this column's
    /// type, nominal segment size and column pin, and its dictionary
    /// compacted to the values the segments hold (the same handle when
    /// every value survives).
    pub fn derived(&self, segments: Vec<SegSlot>) -> Result<EncodedColumn, StorageError> {
        let (ty, dict, rows) = (self.ty, self.dict.clone(), self.segment_rows);
        Ok(Self::from_segments_compacting(ty, dict, segments, rows)?.with_meta_of(self))
    }

    /// The paper's *bitmap filtering*: shrink the column to the rows listed
    /// in `positions` (non-decreasing; a repeated position repeats its
    /// row). Values that vanish are dropped and the dictionary compacted.
    /// Serial; the evolution operators in `cods` core write the same
    /// segments in parallel.
    pub fn filter_positions(&self, positions: &[u64]) -> Result<EncodedColumn, StorageError> {
        let mut scratch = SealScratch::default();
        let segments = positions
            .chunks(self.segment_rows as usize)
            .map(|p| self.try_write_positions(p, &mut scratch))
            .collect::<Result<_, _>>()?;
        self.derived(segments)
    }

    /// Bitmap filtering driven by a selection mask.
    pub fn filter_bitmap(&self, mask: &Wah) -> Result<EncodedColumn, StorageError> {
        let mut scratch = SealScratch::default();
        let segments = self
            .cut_mask(mask)
            .iter()
            .map(|sel| self.try_write(sel, None, &mut scratch))
            .collect::<Result<_, _>>()?;
        self.derived(segments)
    }

    /// Gather by an arbitrary (not necessarily sorted) row selection:
    /// output row `j` carries the value of input row `positions[j]`. Used
    /// by clustering/sorting. Segments are sealed in the column's uniform
    /// encoding when it has one; a mixed column's go through the chooser
    /// (structure is rebuilt anyway).
    pub fn gather(&self, positions: &[u64]) -> Result<EncodedColumn, StorageError> {
        let ids = self.try_value_ids()?;
        let uniform = self.uniform_encoding();
        let mut scratch = SealScratch::default();
        let segments = positions
            .chunks(self.segment_rows as usize)
            .map(|chunk| {
                let gathered: Vec<u32> = chunk.iter().map(|&p| ids[p as usize]).collect();
                match uniform {
                    Some(e) => SegmentEnc::seal(&gathered, e, &mut scratch),
                    None => self.seal_stream(&gathered, &mut scratch),
                }
            })
            .collect();
        self.derived(segments)
    }

    // ---- concat / slice / compaction ----

    /// Concatenates two columns of the same type (UNION TABLES).
    /// Dictionaries are merged; both sides' segments are reused by
    /// reference when no id translation is needed — appending never
    /// rewrites payloads, whatever mix of encodings either side holds.
    pub fn concat(&self, other: &EncodedColumn) -> Result<EncodedColumn, StorageError> {
        if self.ty != other.ty {
            return Err(StorageError::RowMismatch(format!(
                "cannot union column of type {} with {}",
                self.ty, other.ty
            )));
        }
        let (dict, other_map) = self.dict.merge(other.dict());
        let identity = other_map.iter().enumerate().all(|(i, &m)| m as usize == i);
        let mut segments = self.segments.clone();
        if identity {
            segments.extend(other.segments.iter().cloned());
        } else {
            let map: Vec<Option<u32>> = other_map.iter().map(|&m| Some(m)).collect();
            for s in &other.segments {
                segments.push(s.remap(&map)?);
            }
        }
        let seg_pins = [&self.seg_pins[..], &other.seg_pins[..]].concat();
        let mut out = Self::from_segments(self.ty, dict, segments, self.segment_rows);
        // An explicit pin on either input survives the union — the chooser
        // must not undo a recode the user asked for just because the
        // pinned side was the right operand.
        out.set_pins(self.pinned || other.pinned, seg_pins);
        Ok(out)
    }

    /// Extracts the row range `[start, end)`. Fully covered segments are
    /// shared by reference (keeping their encoding and pin) when no
    /// dictionary compaction is needed; partial segments are rewritten in
    /// their own encoding. A partial segment that cannot be read is a typed
    /// error.
    pub fn slice(&self, start: u64, end: u64) -> Result<EncodedColumn, StorageError> {
        assert!(start <= end && end <= self.rows, "slice out of range");
        let mut parts: Vec<SegSlot> = Vec::new();
        let mut seg_pins: Vec<bool> = Vec::new();
        let mut scratch = SealScratch::default();
        for (i, (seg, &seg_start)) in self.segments.iter().zip(&self.starts).enumerate() {
            let seg_end = seg_start + seg.meta().rows;
            let (lo, hi) = (start.max(seg_start), end.min(seg_end));
            if lo >= hi {
                continue;
            }
            parts.push(if (lo, hi) == (seg_start, seg_end) {
                // Fully covered: the slot (with its encoding and residency
                // state) carries over untouched — no fault.
                seg.clone()
            } else {
                self.try_write(&[(lo, hi)], None, &mut scratch)?
            });
            seg_pins.push(self.seg_pins[i]);
        }
        let mut out =
            Self::from_segments_compacting(self.ty, self.dict.clone(), parts, self.segment_rows)?;
        out.set_pins(self.pinned, seg_pins);
        Ok(out)
    }

    /// Returns `true` when the directory is fragmented enough to benefit
    /// from [`EncodedColumn::compacted`] (the shared
    /// [`needs_compaction`](crate::segment::needs_compaction) trigger).
    pub fn needs_compaction(&self) -> bool {
        crate::segment::needs_compaction(&self.segment_sizes(), self.segment_rows)
    }

    /// Re-chunks the segment directory toward the nominal segment size:
    /// adjacent undersized segments are merged and oversized ones split, so
    /// every output segment lands in `[½·nominal, 2·nominal]` (unless the
    /// whole column is smaller). Segments already within bounds are reused
    /// by reference with their encoding and pin.
    ///
    /// Every group covers a contiguous row range, written piece by piece
    /// through [`EncodedColumn::try_write`]. A merge group keeps its
    /// segments' encoding when they share one; a **mixed** group takes a
    /// pinned part's encoding, else the one the chooser picks for the
    /// group's combined run/row/distinct stats (`group_encoding`). A
    /// split group's pieces take the default rule. A segment that cannot
    /// be faulted in or read is an error.
    pub fn compacted(&self) -> Result<EncodedColumn, StorageError> {
        let sizes = self.segment_sizes();
        let Some(plan) = crate::segment::compaction_plan(&sizes, self.segment_rows) else {
            return Ok(self.clone());
        };
        let mut segments: Vec<SegSlot> = Vec::with_capacity(plan.len());
        let mut seg_pins: Vec<bool> = Vec::with_capacity(plan.len());
        let mut scratch = SealScratch::default();
        for group in plan {
            if group.is_untouched(&sizes) {
                segments.push(self.segments[group.segs.start].clone());
                seg_pins.push(self.seg_pins[group.segs.start]);
                continue;
            }
            // A pin anywhere in the group pins its output: compaction must
            // not hand a user-pinned range back to the chooser.
            let pins = &self.seg_pins[group.segs.clone()];
            let group_pin = pins.iter().any(|&p| p);
            let encoding = (group.pieces.len() == 1)
                .then(|| group_encoding(&self.segments[group.segs.clone()], pins, self.pinned));
            let mut lo = self.starts[group.segs.start];
            for piece in group.pieces {
                let seg = self.try_write(&[(lo, lo + piece)], encoding, &mut scratch)?;
                lo += piece;
                seg_pins.push(group_pin);
                segments.push(seg);
            }
        }
        let mut out = Self::from_segments(self.ty, self.dict.clone(), segments, self.segment_rows);
        out.set_pins(self.pinned, seg_pins);
        Ok(out)
    }

    // ---- sizes and invariants ----

    /// Compressed payload bytes (bitmaps and run sequences, excluding the
    /// dictionary), summed from segment stats.
    pub fn payload_bytes(&self) -> usize {
        self.segments.iter().map(|s| s.meta().bytes).sum()
    }

    /// Approximate total heap size (payload + dictionary).
    pub fn size_bytes(&self) -> usize {
        self.payload_bytes() + self.dict.size_bytes()
    }

    /// Faults every paged-out segment into memory — the explicit warm-up
    /// of a lazily opened column.
    pub fn fault_in_all(&self) {
        for seg in &self.segments {
            let _ = seg.enc();
        }
    }

    /// `(resident, on-disk)` counts of the segments that have a payload —
    /// buffer-cache telemetry. A range segment has none, so it is neither.
    pub fn residency_counts(&self) -> (usize, usize) {
        let payloads = self.segments.iter().filter(|s| !s.meta().is_range());
        let (mut resident, mut on_disk) = (0, 0);
        for s in payloads {
            if s.is_resident() {
                resident += 1;
            } else {
                on_disk += 1;
            }
        }
        (resident, on_disk)
    }

    /// Verifies the per-segment invariants, the directory geometry,
    /// dictionary compaction (every value occurs somewhere), and pin-vector
    /// geometry. Faults every payload in;
    /// [`EncodedColumn::check_meta_invariants`] is the no-fault subset.
    pub fn check_invariants(&self) -> Result<(), StorageError> {
        self.check_meta_invariants()?;
        for (i, seg) in self.segments.iter().enumerate() {
            seg.check_invariants()
                .map_err(|e| StorageError::Corrupt(format!("segment {i}: {e}")))?;
        }
        Ok(())
    }

    /// The metadata tier of [`EncodedColumn::check_invariants`]: directory
    /// geometry and dictionary compaction, both checked against the
    /// resident per-segment stats — never faults a payload in.
    /// This is what the v6 lazy-open path runs; payloads are then validated
    /// individually against these same stats as they fault in.
    pub fn check_meta_invariants(&self) -> Result<(), StorageError> {
        if self.segments.len() != self.starts.len() {
            return Err(StorageError::Corrupt("segment/start count mismatch".into()));
        }
        if self.segments.len() != self.seg_pins.len() {
            return Err(StorageError::Corrupt(format!(
                "{} pins for {} segments",
                self.seg_pins.len(),
                self.segments.len()
            )));
        }
        let mut expected_start = 0u64;
        for (i, (seg, &start)) in self.segments.iter().zip(&self.starts).enumerate() {
            if start != expected_start {
                return Err(StorageError::Corrupt(format!(
                    "segment {i} starts at {start}, expected {expected_start}"
                )));
            }
            let meta = seg.meta();
            if meta.rows == 0 {
                return Err(StorageError::Corrupt(format!("segment {i} is empty")));
            }
            if let Some(id) = meta
                .present
                .last()
                .filter(|&id| id as usize >= self.dict.len())
            {
                return Err(StorageError::Corrupt(format!(
                    "segment {i} references id {id} beyond dictionary"
                )));
            }
            expected_start += meta.rows;
        }
        if expected_start != self.rows {
            return Err(StorageError::Corrupt(format!(
                "segments cover {expected_start} rows, column claims {}",
                self.rows
            )));
        }
        if self.rows > 0 {
            if let Some(id) = self.first_absent_id() {
                return Err(StorageError::Corrupt(format!(
                    "value id {id} occurs in no segment (dictionary not compacted)"
                )));
            }
        }
        Ok(())
    }

    /// The least dictionary id no segment holds, if any. A dictionary whose
    /// length is not backed by bytes (a dense int run) is checked by
    /// merging the segments' id intervals — a range's one, a list's one per
    /// id — so nothing is sized from its length; any other by a table over
    /// its ids.
    fn first_absent_id(&self) -> Option<u32> {
        let len = self.dict.len() as u64;
        if !self.dict.is_dense() {
            let mut present = vec![false; self.dict.len()];
            for seg in &self.segments {
                for id in seg.meta().present.ids() {
                    present[id as usize] = true;
                }
            }
            return present.iter().position(|&p| !p).map(|id| id as u32);
        }
        let mut spans: Vec<(u64, u64)> = Vec::new();
        for seg in &self.segments {
            match seg.meta().present.range() {
                Some(ids) => spans.push((ids.start.into(), ids.end.into())),
                None => spans.extend(
                    seg.meta()
                        .present
                        .ids()
                        .map(|id| (id.into(), id as u64 + 1)),
                ),
            }
        }
        spans.sort_unstable();
        let mut covered = 0u64;
        for (lo, hi) in spans {
            if lo > covered {
                break;
            }
            covered = covered.max(hi);
        }
        (covered < len).then_some(covered as u32)
    }

    /// Decoding helper: installs the column pin and the per-segment pins
    /// read from disk (parallel to the directory).
    pub(crate) fn set_pins(&mut self, pinned: bool, seg_pins: Vec<bool>) {
        debug_assert_eq!(seg_pins.len(), self.segments.len());
        self.pinned = pinned;
        self.seg_pins = seg_pins;
    }

    /// The raw segment-range pin bit of segment `idx`, without the
    /// column-level pin folded in (the persist writer stores the two
    /// independently, and `stats` reports them so).
    pub(crate) fn segment_pin_raw(&self, idx: usize) -> bool {
        self.seg_pins[idx]
    }
}

/// What a selection read collects: the selected rows' ids, concatenated
/// (`Vec<u32>`, what a write seals), or their maximal runs (`Vec<(u32,
/// u64)>`).
pub(crate) trait SelSink {
    /// Takes `n` consecutive selected rows of value `id`.
    fn run(&mut self, id: u32, n: u64);
    /// Takes the ids of consecutive selected rows.
    fn ids(&mut self, ids: &[u32]);
    /// `rows` fresh `u32::MAX` slots a wholly selected bitmap segment can
    /// decode straight into, when the sink keeps ids.
    fn whole_segment(&mut self, rows: usize) -> Option<&mut [u32]>;
    /// Takes `n` consecutive selected rows holding the ids `first..first +
    /// n`, one each (a range segment's rows).
    fn id_range(&mut self, first: u32, n: u64) {
        for id in first..first + n as u32 {
            self.run(id, 1);
        }
    }
}

impl SelSink for Vec<u32> {
    fn run(&mut self, id: u32, n: u64) {
        self.resize(self.len() + n as usize, id);
    }
    fn id_range(&mut self, first: u32, n: u64) {
        self.extend(first..first + n as u32);
    }
    fn ids(&mut self, ids: &[u32]) {
        self.extend_from_slice(ids);
    }
    fn whole_segment(&mut self, rows: usize) -> Option<&mut [u32]> {
        let at = self.len();
        self.resize(at + rows, u32::MAX);
        Some(&mut self[at..])
    }
}

impl SelSink for Vec<(u32, u64)> {
    fn run(&mut self, id: u32, n: u64) {
        match self.last_mut() {
            Some((last, len)) if *last == id => *len += n,
            _ => self.push((id, n)),
        }
    }
    fn ids(&mut self, ids: &[u32]) {
        for &id in ids {
            self.run(id, 1);
        }
    }
    fn whole_segment(&mut self, _: usize) -> Option<&mut [u32]> {
        None
    }
}

/// The encoding a compaction merge group is written in, from resident
/// metadata alone: its parts' encoding when they share one. A mixed group
/// takes the first *pinned* part's encoding — or, in a column-pinned
/// column, its first part's — so an unpinned neighbor merged in cannot
/// flip data a user recoded explicitly; else the one the chooser picks for
/// the group's combined run/row/distinct stats.
fn group_encoding(parts: &[SegSlot], pins: &[bool], column_pinned: bool) -> Encoding {
    debug_assert!(!parts.is_empty());
    let first = parts[0].meta().encoding;
    if parts.iter().all(|s| s.meta().encoding == first) {
        return first;
    }
    let pinned = parts.iter().zip(pins).find(|(_, &pin)| pin);
    if let Some((seg, _)) = pinned {
        return seg.meta().encoding;
    }
    if column_pinned {
        return first;
    }
    let runs: u64 = parts.iter().map(|s| s.meta().runs).sum();
    let rows: u64 = parts.iter().map(|s| s.meta().rows).sum();
    let mut distinct: Vec<u32> = parts.iter().flat_map(|s| s.meta().present.ids()).collect();
    distinct.sort_unstable();
    distinct.dedup();
    choose_encoding_from_stats(runs, rows, distinct.len() as u64, 1)
}

/// Incremental column builder: interns values (through a value → id map
/// only once they stop being a dense run of ints; the map is dropped at
/// [`ColumnBuilder::finish`]) and pushes their ids into the current
/// segment's id buffer, sealing a segment every `segment_rows` rows
/// — bitmap, or packed where the segment is near-unique (the ingest path;
/// the chooser re-encodes later where the stats say so).
#[derive(Debug)]
pub struct ColumnBuilder {
    ty: ValueType,
    dict: Dictionary,
    segment_rows: u64,
    /// The current segment's ids, one per row.
    cur: Vec<u32>,
    segments: Vec<SegSlot>,
    rows: u64,
    scratch: SealScratch,
}

impl ColumnBuilder {
    /// Creates a builder for a column of type `ty` with the default segment
    /// size.
    pub fn new(ty: ValueType) -> Self {
        Self::with_segment_rows(ty, crate::segment::DEFAULT_SEGMENT_ROWS)
    }

    /// Creates a builder sealing a segment every `segment_rows` rows.
    pub fn with_segment_rows(ty: ValueType, segment_rows: u64) -> Self {
        assert!(segment_rows > 0, "segment size must be positive");
        ColumnBuilder {
            ty,
            dict: Dictionary::new(),
            segment_rows,
            cur: Vec::new(),
            segments: Vec::new(),
            rows: 0,
            scratch: SealScratch::default(),
        }
    }

    /// Appends one value as the next row.
    pub fn push(&mut self, v: Value) -> Result<(), StorageError> {
        self.push_run(v, 1)
    }

    /// Appends `count` rows of one value — at most a segment's ids held at
    /// once, whatever `count` is.
    pub fn push_run(&mut self, v: Value, mut count: u64) -> Result<(), StorageError> {
        if !v.conforms_to(self.ty) {
            return Err(StorageError::RowMismatch(format!(
                "value {v} does not conform to column type {}",
                self.ty
            )));
        }
        if count == 0 {
            return Ok(());
        }
        let id = self.dict.intern(v);
        self.rows += count;
        while count > 0 {
            let take = count.min(self.segment_rows - self.cur.len() as u64);
            self.cur.resize(self.cur.len() + take as usize, id);
            count -= take;
            if self.cur.len() as u64 == self.segment_rows {
                self.seal_segment();
            }
        }
        Ok(())
    }

    fn seal_segment(&mut self) {
        if !self.cur.is_empty() {
            let slot = SegmentEnc::seal_with(&self.cur, bitmap_or_packed, &mut self.scratch);
            self.segments.push(slot);
            self.cur.clear();
        }
    }

    /// Rows appended so far.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Finalizes the column.
    pub fn finish(mut self) -> EncodedColumn {
        self.seal_segment();
        self.dict.shed_map();
        let col =
            EncodedColumn::from_segments(self.ty, self.dict, self.segments, self.segment_rows);
        debug_assert_eq!(col.rows, self.rows);
        col
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vals(n: i64) -> Vec<Value> {
        (0..n).map(|i| Value::int(i % 5)).collect()
    }

    fn both(values: &[Value]) -> (EncodedColumn, EncodedColumn) {
        let bitmap = EncodedColumn::from_values_with(ValueType::Int, values, 64).unwrap();
        let rle = bitmap.recode(Encoding::Rle).unwrap();
        (bitmap, rle)
    }

    /// A genuinely mixed directory: even segments bitmap, odd segments RLE.
    fn mixed(values: &[Value], seg: u64) -> EncodedColumn {
        let base = EncodedColumn::from_values_with(ValueType::Int, values, seg).unwrap();
        let mut out = base;
        for i in (1..out.segment_count()).step_by(2) {
            out = out
                .with_encoding(
                    RecodeScope::Segments(i..i + 1),
                    RecodeTarget::To(Encoding::Rle),
                )
                .unwrap();
        }
        out
    }

    /// Aligned, partial, cross-segment, fragmented, empty and whole-column
    /// selections over a 500-row column in 64-row segments.
    fn selections() -> Vec<Vec<(u64, u64)>> {
        vec![
            vec![(0, 64)],
            vec![(64, 128)],
            vec![(10, 20)],
            vec![(60, 70)],
            vec![(100, 317)],
            vec![],
            vec![(499, 500)],
            vec![(0, 500)],
            vec![(0, 3), (5, 9), (62, 66), (127, 129), (300, 450)],
            (0..20).map(|i| (3 * i, 3 * i + 1)).collect(),
        ]
    }

    #[test]
    fn ids_in_matches_value_ids_on_mixed_directories() {
        let values: Vec<Value> = (0..500).map(|i| Value::int(i / 7 % 11)).collect();
        let col = mixed(&values, 64);
        assert!(
            col.encoding_counts()[Encoding::Bitmap] > 0 && col.encoding_counts()[Encoding::Rle] > 0
        );
        let full = col.value_ids();
        for sel in selections() {
            let want: Vec<u32> = sel
                .iter()
                .flat_map(|&(a, b)| full[a as usize..b as usize].iter().copied())
                .collect();
            assert_eq!(col.try_ids_in(&sel).unwrap(), want, "{sel:?}");
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn ids_in_rejects_out_of_bounds() {
        let (bitmap, _) = both(&vals(10));
        let _ = bitmap.try_ids_in(&[(5, 11)]);
    }

    #[test]
    fn runs_in_coalesces_and_matches_ids_in() {
        // Clustered values so runs span segment boundaries and gaps.
        let values: Vec<Value> = (0..500).map(|i| Value::int(i / 90)).collect();
        let col = mixed(&values, 64);
        assert!(
            col.encoding_counts()[Encoding::Bitmap] > 0 && col.encoding_counts()[Encoding::Rle] > 0
        );
        for sel in selections() {
            let runs = col.try_runs_in(&sel).unwrap();
            // Maximal: no two adjacent runs share an id.
            for pair in runs.windows(2) {
                assert_ne!(pair[0].0, pair[1].0, "{sel:?} not coalesced");
            }
            let expanded: Vec<u32> = runs
                .iter()
                .flat_map(|&(id, n)| std::iter::repeat_n(id, n as usize))
                .collect();
            assert_eq!(expanded, col.try_ids_in(&sel).unwrap(), "{sel:?}");
        }
    }

    #[test]
    fn build_and_decode() {
        let skills: Vec<Value> = ["typing", "shorthand", "cleaning", "alchemy", "typing"]
            .iter()
            .map(Value::str)
            .collect();
        let c = EncodedColumn::from_values(ValueType::Str, &skills).unwrap();
        c.check_invariants().unwrap();
        assert_eq!(c.rows(), 5);
        assert_eq!(c.distinct_count(), 4);
        assert_eq!(c.values(), skills);
        assert_eq!(*c.value_at(0), Value::str("typing"));
        // Four values in five rows: near-unique, so ingest packs it.
        assert_eq!(c.uniform_encoding(), Some(Encoding::Packed));
    }

    #[test]
    fn builder_emits_multiple_segments() {
        let mut b = ColumnBuilder::with_segment_rows(ValueType::Int, 100);
        for i in 0..1_050 {
            b.push(Value::int(i % 7)).unwrap();
        }
        let c = b.finish();
        c.check_invariants().unwrap();
        assert_eq!(c.segment_count(), 11);
        assert_eq!(c.segments()[0].meta().rows, 100);
        assert_eq!(c.segments()[10].meta().rows, 50);
        assert_eq!(c.starts[10], 1_000);
        let expect: Vec<Value> = (0..1_050).map(|i| Value::int(i % 7)).collect();
        assert_eq!(c.values(), expect);
    }

    #[test]
    fn segments_are_sparse() {
        let mut b = ColumnBuilder::with_segment_rows(ValueType::Int, 100);
        for i in 0..200 {
            b.push(Value::int(i / 100)).unwrap();
        }
        let c = b.finish();
        c.check_invariants().unwrap();
        assert_eq!(c.segment_count(), 2);
        assert_eq!(
            c.segments()[0].meta().present.ids().collect::<Vec<_>>(),
            [0]
        );
        assert_eq!(
            c.segments()[1].meta().present.ids().collect::<Vec<_>>(),
            [1]
        );
        assert_eq!(c.value_count(0), 100);
        assert!(!c.segments()[1].meta().contains_id(0));
    }

    #[test]
    fn value_bitmap_splices_across_segments() {
        let vals: Vec<Value> = (0..300).map(|i| Value::int(i % 3)).collect();
        for col in [
            EncodedColumn::from_values_with(ValueType::Int, &vals, 64).unwrap(),
            mixed(&vals, 64),
        ] {
            let bm = col.value_bitmap(0);
            assert_eq!(bm.len(), 300);
            assert_eq!(bm.to_positions(), (0..300).step_by(3).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn nulls_and_type_mismatch() {
        let vals = vec![Value::int(1), Value::Null, Value::int(1), Value::Null];
        let c = EncodedColumn::from_values(ValueType::Int, &vals).unwrap();
        c.check_invariants().unwrap();
        assert_eq!(c.distinct_count(), 2);
        assert_eq!(c.values(), vals);
        let mut b = ColumnBuilder::new(ValueType::Int);
        assert!(b.push(Value::str("oops")).is_err());
        b.push(Value::Null).unwrap(); // NULL conforms to any type
        assert_eq!(b.finish().rows(), 1);
    }

    #[test]
    fn filter_positions_drops_vanished_values() {
        let vals: Vec<Value> = ["a", "b", "c", "d", "a"].iter().map(Value::str).collect();
        let c = EncodedColumn::from_values(ValueType::Str, &vals).unwrap();
        let f = c.filter_positions(&[0, 3, 4]).unwrap();
        f.check_invariants().unwrap();
        assert_eq!(f.rows(), 3);
        assert_eq!(f.distinct_count(), 2);
        assert_eq!(
            f.values(),
            vec![Value::str("a"), Value::str("d"), Value::str("a")]
        );
    }

    #[test]
    fn empty_column() {
        let c = EncodedColumn::from_values(ValueType::Int, &[]).unwrap();
        c.check_invariants().unwrap();
        assert_eq!(c.rows(), 0);
        assert_eq!(c.segment_count(), 0);
        assert_eq!(c.uniform_encoding(), Some(Encoding::Bitmap));
        assert!(c.values().is_empty());
    }

    #[test]
    fn push_run_writes_one_run_per_segment() {
        let mut b = ColumnBuilder::with_segment_rows(ValueType::Int, 100);
        b.push_run(Value::int(7), 0).unwrap();
        b.push(Value::int(1)).unwrap();
        b.push_run(Value::int(7), 250).unwrap();
        let c = b.finish();
        c.check_invariants().unwrap();
        assert_eq!(c.distinct_count(), 2, "a zero-row run interns nothing");
        assert_eq!(c.segment_sizes(), vec![100, 100, 51]);
        assert_eq!(c.run_count(), 4);
        let mut expect = vec![Value::int(1)];
        expect.extend(std::iter::repeat_n(Value::int(7), 250));
        assert_eq!(c.values(), expect);
    }

    #[test]
    fn concat_shares_segments_of_both_sides() {
        let vals: Vec<Value> = (0..500).map(|i| Value::int(i % 5)).collect();
        let a = EncodedColumn::from_values_with(ValueType::Int, &vals, 100).unwrap();
        let b = a.recode(Encoding::Rle).unwrap();
        let c = a.concat(&b).unwrap();
        c.check_invariants().unwrap();
        assert_eq!(c.rows(), 1_000);
        assert_eq!(c.segment_count(), 10);
        // Left side stays bitmap, right side stays RLE — a mixed directory
        // out of a mixed-encoding union, both reused by reference (the
        // shared slots mean a cached segment serves both table versions).
        assert!(c.segments()[0].ptr_eq(&a.segments()[0]));
        assert_eq!(c.segments()[0].meta().encoding, Encoding::Bitmap);
        assert!(c.segments()[5].ptr_eq(&b.segments()[0]));
        assert_eq!(c.segments()[5].meta().encoding, Encoding::Rle);
        assert_eq!(c.encoding_counts(), EncodingCounts([5, 5, 0]));
        assert_eq!(c.uniform_encoding(), None);
        let mut expect = vals.clone();
        expect.extend(vals);
        assert_eq!(c.values(), expect);
    }

    #[test]
    fn slice_shares_interior_segments() {
        let vals: Vec<Value> = (0..1_000).map(|i| Value::int(i % 4)).collect();
        let c = mixed(&vals, 100);
        let s = c.slice(50, 950).unwrap();
        s.check_invariants().unwrap();
        assert_eq!(s.rows(), 900);
        // Interior segments carry over untouched, keeping their encoding
        // (output segment 1 is input segment 1, which `mixed` made RLE).
        assert_eq!(
            s.segments()[1].meta().encoding,
            c.segments()[1].meta().encoding
        );
        assert_eq!(s.segments()[1].meta().encoding, Encoding::Rle);
        let expect: Vec<Value> = (50..950).map(|i| Value::int(i % 4)).collect();
        assert_eq!(s.values(), expect);
    }

    #[test]
    fn derivations_that_keep_every_value_share_the_dictionary() {
        let values: Vec<Value> = (0..300).map(|i| Value::int(i % 7)).collect();
        let col = mixed(&values, 64);
        let shares = |c: &EncodedColumn| {
            c.check_invariants().unwrap();
            c.dict().same_as(col.dict())
        };
        let evens: Vec<u64> = (0..300).step_by(2).collect();
        assert!(shares(&col.clone()));
        assert!(shares(&col.filter_positions(&evens).unwrap()));
        let mask = Wah::from_sorted_positions(evens.iter().copied(), 300);
        assert!(shares(&col.filter_bitmap(&mask).unwrap()));
        assert!(shares(&col.gather(&[6, 5, 4, 3, 2, 1, 0, 299]).unwrap()));
        assert!(shares(&col.slice(10, 200).unwrap()));
        let fragmented = col
            .slice(0, 10)
            .unwrap()
            .concat(&col.slice(10, 300).unwrap())
            .unwrap();
        assert!(shares(&fragmented));
        assert!(shares(&fragmented.compacted().unwrap()));
        let ids = col.value_ids();
        let mut scratch = SealScratch::default();
        let segments = ids
            .chunks(50)
            .map(|chunk| col.seal_stream(chunk, &mut scratch))
            .collect();
        assert!(shares(&col.derived(segments).unwrap()));

        // Dropping a value compacts into a dictionary of its own.
        let narrowed = col.filter_positions(&[0, 1]).unwrap();
        assert!(!shares(&narrowed));
        assert_eq!(narrowed.distinct_count(), 2);
        assert_eq!(col.distinct_count(), 7);
    }

    #[test]
    fn encodings_agree_on_primitives() {
        let values = vals(500);
        let (b, r) = both(&values);
        let m = mixed(&values, 64);
        for col in [&r, &m] {
            assert_eq!(b.values(), col.values());
            assert_eq!(b.value_ids(), col.value_ids());
            assert_eq!(b.segment_count(), col.segment_count());
            let positions: Vec<u64> = (0..500).step_by(3).collect();
            assert_eq!(
                b.filter_positions(&positions).unwrap().values(),
                col.filter_positions(&positions).unwrap().values()
            );
            assert_eq!(
                b.slice(100, 300).unwrap().values(),
                col.slice(100, 300).unwrap().values()
            );
            for id in 0..b.distinct_count() as u32 {
                assert_eq!(b.value_bitmap(id), col.value_bitmap(id));
            }
        }
    }

    #[test]
    fn recode_round_trips() {
        let values = vals(300);
        let (b, r) = both(&values);
        assert_eq!(b.recode(Encoding::Rle).unwrap(), r);
        assert_eq!(r.recode(Encoding::Bitmap).unwrap(), b);
        assert_eq!(b.recode(Encoding::Bitmap).unwrap(), b);
        // A mixed directory recodes to either uniform form losslessly.
        let m = mixed(&values, 64);
        assert_eq!(m.recode(Encoding::Bitmap).unwrap().values(), b.values());
        let uniform_rle = m.recode(Encoding::Rle).unwrap();
        assert!(uniform_rle.is_uniform(Encoding::Rle));
        assert_eq!(uniform_rle.values(), b.values());
    }

    #[test]
    fn chooser_picks_rle_on_clustered_and_bitmap_on_uniform() {
        // Clustered: 20k rows, 200 distinct values in sorted order — mean
        // run length 100. Every segment's own stats say RLE.
        let clustered: Vec<Value> = (0..20_000).map(|i| Value::int(i / 100)).collect();
        let c = EncodedColumn::from_values_with(ValueType::Int, &clustered, 4096).unwrap();
        assert_eq!(c.run_count(), 200 + 4); // one run per value, +1 per interior boundary
        assert_eq!(c.choose_encoding(), Encoding::Rle);
        for i in 0..c.segment_count() {
            assert_eq!(c.segments()[i].meta().choose_encoding(), Encoding::Rle);
        }
        assert!(c.auto_recoded().unwrap().is_uniform(Encoding::Rle));

        // High-cardinality uniform: runs ≈ rows, and about 2,800 distinct
        // values per 4,096-row segment — near-unique, so packed everywhere
        // (ingest already packs it).
        let uniform: Vec<Value> = (0..20_000)
            .map(|i| Value::int((i * 2_654_435_761u64 as i64) % 5_000))
            .collect();
        let u = EncodedColumn::from_values_with(ValueType::Int, &uniform, 4096).unwrap();
        // The column as a whole repeats its values (5,000 in 20,000 rows):
        // the aggregate pick stays bitmap.
        assert_eq!(u.choose_encoding(), Encoding::Bitmap);
        assert!(u.is_uniform(Encoding::Packed));
        assert!(u
            .segments()
            .iter()
            .all(|s| s.meta().choose_encoding() == s.meta().encoding));
        assert!(u
            .recode(Encoding::Rle)
            .unwrap()
            .auto_recoded()
            .unwrap()
            .is_uniform(Encoding::Packed));

        // Uniform with values that repeat (500 per segment): runs ≈ rows,
        // not near-unique. Stays bitmap everywhere.
        let repeating: Vec<Value> = (0..20_000)
            .map(|i| Value::int((i * 2_654_435_761u64 as i64) % 500))
            .collect();
        let r = EncodedColumn::from_values_with(ValueType::Int, &repeating, 4096).unwrap();
        assert_eq!(r.choose_encoding(), Encoding::Bitmap);
        assert!(r.is_uniform(Encoding::Bitmap));
        assert!(r
            .recode(Encoding::Rle)
            .unwrap()
            .auto_recoded()
            .unwrap()
            .is_uniform(Encoding::Bitmap));
    }

    #[test]
    fn per_segment_chooser_produces_mixed_directories() {
        // Half-clustered, half-uniform: the per-segment chooser must flip
        // only the clustered prefix to RLE — a genuinely mixed directory.
        let n = 8_192i64;
        let values: Vec<Value> = (0..n)
            .map(|i| {
                if i < n / 2 {
                    Value::int(i / 512)
                } else {
                    Value::int((i * 2_654_435_761u64 as i64) % 1_000)
                }
            })
            .collect();
        let c = EncodedColumn::from_values_with(ValueType::Int, &values, 1024).unwrap();
        let auto = c.auto_recoded().unwrap();
        auto.check_invariants().unwrap();
        let counts = auto.encoding_counts();
        let (bitmap_segs, rle_segs) = (counts[Encoding::Bitmap], counts[Encoding::Rle]);
        assert!(rle_segs >= 3, "clustered prefix should flip to RLE");
        // About 640 distinct values per 1,024-row segment: near-unique.
        assert_eq!(bitmap_segs, 0);
        assert!(counts[Encoding::Packed] >= 3, "uniform suffix should pack");
        assert_eq!(auto.uniform_encoding(), None);
        assert_eq!(auto.values(), c.values());
        // ...and the flipped prefix pays: smaller than all-bitmap.
        assert!(auto.payload_bytes() < c.payload_bytes());
    }

    #[test]
    fn auto_recode_respects_pin() {
        let clustered: Vec<Value> = (0..4_000).map(|i| Value::int(i / 100)).collect();
        let c = EncodedColumn::from_values_with(ValueType::Int, &clustered, 1024).unwrap();
        // Unpinned: the chooser flips the clustered column to RLE.
        assert!(c.auto_recoded().unwrap().is_uniform(Encoding::Rle));
        // Pinned: an explicit recode overrides the chooser.
        let mut pinned = c.clone();
        pinned.pinned = true;
        assert!(pinned.auto_recoded().unwrap().is_uniform(Encoding::Bitmap));
        // The pin survives recode, filter, concat, slice, and compaction.
        let r = pinned.recode(Encoding::Rle).unwrap();
        assert!(r.encoding_pinned());
        assert!(r.filter_positions(&[0, 5, 9]).unwrap().encoding_pinned());
        assert!(r.concat(&r).unwrap().encoding_pinned());
        assert!(r.slice(10, 900).unwrap().encoding_pinned());
        assert!(!c.encoding_pinned());
    }

    #[test]
    fn segment_range_recode_pins_those_segments() {
        let clustered: Vec<Value> = (0..4_000).map(|i| Value::int(i / 100)).collect();
        let c = EncodedColumn::from_values_with(ValueType::Int, &clustered, 500).unwrap();
        assert_eq!(c.segment_count(), 8);
        // Pin segments 2..5 to bitmap; the chooser may flip the rest.
        let ranged = c
            .with_encoding(
                RecodeScope::Segments(2..5),
                RecodeTarget::To(Encoding::Bitmap),
            )
            .unwrap();
        assert!(!ranged.encoding_pinned(), "column-level pin untouched");
        for i in 0..8 {
            assert_eq!(ranged.segment_pinned(i), (2..5).contains(&i));
        }
        let auto = ranged.auto_recoded().unwrap();
        auto.check_invariants().unwrap();
        for i in 0..8 {
            let expect = if (2..5).contains(&i) {
                Encoding::Bitmap
            } else {
                Encoding::Rle
            };
            assert_eq!(auto.segment_encoding(i), expect, "segment {i}");
        }
        // Range pins survive concat and slice of covered segments.
        let cat = ranged.concat(&ranged).unwrap();
        assert!(cat.segment_pinned(2) && cat.segment_pinned(10));
        assert!(!cat.segment_pinned(0) && !cat.segment_pinned(8));
        // `auto` over the range clears the pins and re-applies the chooser.
        let cleared = auto
            .with_encoding(RecodeScope::Segments(2..5), RecodeTarget::Auto)
            .unwrap();
        for i in 0..8 {
            assert!(!cleared.segment_pinned(i));
            assert_eq!(cleared.segment_encoding(i), Encoding::Rle);
        }
        // Out-of-bounds ranges are rejected.
        assert!(c
            .with_encoding(RecodeScope::Segments(7..9), RecodeTarget::To(Encoding::Rle))
            .is_err());
        assert!(c
            .with_encoding(RecodeScope::Segments(9..9), RecodeTarget::Auto)
            .is_err());
    }

    #[test]
    fn concat_keeps_pin_from_either_side() {
        let values = vals(200);
        let (b, r) = both(&values);
        let mut pinned = b.clone();
        pinned.pinned = true;
        assert!(b.concat(&pinned).unwrap().encoding_pinned());
        assert!(pinned.concat(&b).unwrap().encoding_pinned());
        assert!(r.concat(&pinned).unwrap().encoding_pinned());
        let mut pinned_rle = r.clone();
        pinned_rle.pinned = true;
        assert!(b.concat(&pinned_rle).unwrap().encoding_pinned());
        assert!(!b.concat(&r).unwrap().encoding_pinned());
        assert!(pinned.recode(Encoding::Rle).unwrap().encoding_pinned());
    }

    #[test]
    fn zones_track_value_order_extremes() {
        // Two segments: rows 0..4 hold {30, 10}, rows 4..8 hold {20, 40}.
        let vals: Vec<Value> = [30, 10, 30, 10, 20, 40, 20, 40]
            .iter()
            .map(|&i| Value::int(i))
            .collect();
        let (b, r) = {
            let bitmap = EncodedColumn::from_values_with(ValueType::Int, &vals, 4).unwrap();
            let rle = bitmap.recode(Encoding::Rle).unwrap();
            (bitmap, rle)
        };
        for col in [&b, &r] {
            assert_eq!(col.zones().len(), 2);
            let dict = col.dict();
            let z0 = col.zone(0);
            assert_eq!(*dict.value(z0.min_id), Value::int(10));
            assert_eq!(*dict.value(z0.max_id), Value::int(30));
            let z1 = col.zone(1);
            assert_eq!(*dict.value(z1.min_id), Value::int(20));
            assert_eq!(*dict.value(z1.max_id), Value::int(40));
        }
        // Concat keeps each segment's zone — across encodings.
        let cat = b.concat(&r).unwrap();
        assert_eq!(cat.zones().len(), 4);
        assert_eq!(cat.zone(2), b.zone(0));
        let s = b.slice(4, 6).unwrap(); // rows {20, 40} → one partial segment
        assert_eq!(s.zones().len(), 1);
        s.check_invariants().unwrap();
    }

    #[test]
    fn mixed_compaction_transcodes_merge_groups() {
        // Fragment a mixed directory into tiny alternating-encoding
        // slices; compaction must merge them into healthy segments with
        // identical data, transcoding inside mixed groups.
        let values: Vec<Value> = (0..4_000).map(|i| Value::int(i % 6)).collect();
        let base = mixed(&values, 256);
        let mut acc = base.slice(0, 10).unwrap();
        for i in 1..100 {
            acc = acc
                .concat(&base.slice(i * 10, i * 10 + 10).unwrap())
                .unwrap();
        }
        assert_eq!(acc.rows(), 1_000);
        assert!(acc.needs_compaction());
        let compacted = acc.compacted().unwrap();
        compacted.check_invariants().unwrap();
        assert_eq!(compacted.values(), acc.values());
        assert_eq!(compacted.dict(), acc.dict());
        let nominal = compacted.nominal_segment_rows();
        for size in compacted.segment_sizes() {
            assert!(size >= nominal / 2 && size <= 2 * nominal);
        }
        assert!(!compacted.needs_compaction());
    }

    #[test]
    fn compaction_keeps_a_pinned_segments_encoding_in_mixed_groups() {
        // A pinned RLE fragment merged with unpinned bitmap neighbors must
        // come out RLE (and pinned) even though the neighbors come first
        // in the group — compaction must not reshape an explicit recode.
        let values: Vec<Value> = (0..1_200)
            .map(|i| Value::int((i * 2_654_435_761u64 as i64) % 400))
            .collect();
        let base = EncodedColumn::from_values_with(ValueType::Int, &values, 400).unwrap();
        assert_eq!(base.segment_count(), 3);
        // Pin the middle segment RLE; scattered data means the chooser
        // would pick bitmap for the merged group if the pin were ignored.
        let pinned = base
            .with_encoding(RecodeScope::Segments(1..2), RecodeTarget::To(Encoding::Rle))
            .unwrap();
        // Fragment into tiny slices so compaction merges across the pinned
        // range, then compact.
        let mut acc = pinned.slice(0, 30).unwrap();
        for i in 1..40 {
            acc = acc
                .concat(&pinned.slice(i * 30, (i + 1) * 30).unwrap())
                .unwrap();
        }
        assert!(acc.needs_compaction());
        let compacted = acc.compacted().unwrap();
        compacted.check_invariants().unwrap();
        assert_eq!(compacted.values(), acc.values());
        // Every output segment containing pinned rows stays RLE + pinned.
        let pinned_segments: Vec<usize> = (0..compacted.segment_count())
            .filter(|&i| compacted.segment_pinned(i))
            .collect();
        assert!(!pinned_segments.is_empty(), "pin must survive compaction");
        for i in pinned_segments {
            assert_eq!(
                compacted.segment_encoding(i),
                Encoding::Rle,
                "pinned segment {i} flipped encoding during compaction"
            );
        }
    }

    #[test]
    fn writes_draw_their_encoding_from_their_sources() {
        // Segments of 4 rows: [0 0 1 1] bitmap, [2 2 2 2] RLE, [3 3 0 0] RLE.
        let values: Vec<Value> = [0, 0, 1, 1, 2, 2, 2, 2, 3, 3, 0, 0]
            .iter()
            .map(|&i| Value::int(i))
            .collect();
        let col = EncodedColumn::from_values_with(ValueType::Int, &values, 4)
            .unwrap()
            .with_encoding(RecodeScope::Segments(1..3), RecodeTarget::To(Encoding::Rle))
            .unwrap();
        let mut scratch = SealScratch::default();
        let mut write = |sel: &[(u64, u64)], encoding| {
            let seg = col.try_write(sel, encoding, &mut scratch).unwrap();
            seg.check_invariants().unwrap();
            seg
        };
        // Rows drawn from RLE segments only seal RLE, across a boundary.
        let rle = write(&[(5, 7), (9, 11)], None);
        assert_eq!(rle.meta().encoding, Encoding::Rle);
        assert_eq!(rle.meta().present.ids().collect::<Vec<_>>(), [0, 2, 3]);
        // A bitmap source anywhere seals bitmap, the runs joined in order.
        let mixed = write(&[(2, 6)], None);
        assert_eq!(mixed.meta().encoding, Encoding::Bitmap);
        assert_eq!(mixed.meta().present.ids().collect::<Vec<_>>(), [1, 2]);
        assert_eq!(mixed.meta().count_for(2), 2);
        assert_eq!(mixed.meta().runs, 2);
        // An explicit encoding wins.
        assert_eq!(
            write(&[(2, 6)], Some(Encoding::Rle)).meta().encoding,
            Encoding::Rle
        );
        // A repeated position repeats its row; the segment is its run.
        // Three values in five rows are near-unique: a bitmap source seals
        // them packed.
        let seg = col
            .try_write_positions(&[1, 2, 2, 2, 9], &mut scratch)
            .unwrap();
        let SegmentEnc::Packed(packed) = seg.enc() else {
            panic!("near-unique rows from a bitmap source seal packed");
        };
        assert_eq!(seg.meta().rows, 5);
        let ids: Vec<u32> = (0..5).map(|r| packed.id_at(r)).collect();
        assert_eq!(ids, vec![0, 1, 1, 1, 3]);
        assert_eq!(seg.meta().runs, 3);
    }

    #[test]
    fn window_reads_match_the_row_oracle() {
        // Three 200-row segments of scattered values, in each encoding.
        // Selections end at row 0, inside a 63-row group, and at a
        // segment's last row; a partial bitmap read decodes only up to
        // its window's end, and must still read exactly the oracle's ids.
        let values: Vec<Value> = (0..600i64).map(|i| Value::int(i * 37 % 23)).collect();
        let base = EncodedColumn::from_values_with(ValueType::Int, &values, 200).unwrap();
        let oracle = base.value_ids();
        let sels: [&[(u64, u64)]; 10] = [
            &[(0, 1)],
            &[(0, 100)],
            &[(10, 11), (40, 101)],
            &[(150, 200)],
            &[(199, 200)],
            &[(100, 250)],
            &[(200, 201)],
            &[(263, 264), (300, 399)],
            &[(399, 400), (599, 600)],
            &[(0, 600)],
        ];
        let mut scratch = SealScratch::default();
        for e in Encoding::ALL {
            let col = base.recode(e).unwrap();
            for sel in sels {
                let want: Vec<u32> = sel
                    .iter()
                    .flat_map(|&(a, b)| oracle[a as usize..b as usize].to_vec())
                    .collect();
                assert_eq!(col.try_ids_in(sel).unwrap(), want, "{e} {sel:?}");
                let slot = col.try_write(sel, None, &mut scratch).unwrap();
                slot.check_invariants().unwrap();
                let rows = slot.meta().rows;
                let dict = col.dict().clone();
                let one = EncodedColumn::from_segments(ValueType::Int, dict, vec![slot], rows);
                assert_eq!(one.value_ids(), want, "{e} {sel:?}");
            }
        }
    }

    #[test]
    fn seal_stream_follows_the_chooser() {
        let col = EncodedColumn::from_values_with(ValueType::Int, &vals(100), 64).unwrap();
        let mut scratch = SealScratch::default();
        // Long runs → RLE.
        let runs: Vec<u32> = [0, 1].iter().flat_map(|&id| [id; 50]).collect();
        let seg = col.seal_stream(&runs, &mut scratch);
        assert_eq!(seg.meta().encoding, Encoding::Rle);
        // Alternating ids (runs ≈ rows, distinct small but runs > 2·(d+1))
        // → bitmap.
        let alt: Vec<u32> = (0..100u32).map(|i| i % 4).collect();
        let seg = col.seal_stream(&alt, &mut scratch);
        assert_eq!(seg.meta().encoding, Encoding::Bitmap);
        seg.check_invariants().unwrap();
        // A pinned uniform column forces its encoding on fresh segments.
        let mut pinned = col.recode(Encoding::Rle).unwrap();
        pinned.pinned = true;
        assert_eq!(
            pinned.seal_stream(&alt, &mut scratch).meta().encoding,
            Encoding::Rle
        );
    }

    #[test]
    fn gather_unsorted_on_mixed() {
        let values = vals(300);
        let b = EncodedColumn::from_values_with(ValueType::Int, &values, 64).unwrap();
        let m = mixed(&values, 64);
        let positions: Vec<u64> = (0..300).rev().step_by(7).collect();
        assert_eq!(
            b.gather(&positions).unwrap().values(),
            m.gather(&positions).unwrap().values()
        );
    }
}
