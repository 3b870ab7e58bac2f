//! The unified column: one column-global dictionary plus **one** segment
//! directory whose entries are individually bitmap or run-length encoded
//! ([`SegmentEnc`]). A clustered prefix of a column can sit in RLE segments
//! while its high-churn suffix stays bitmap — the per-*segment* layout
//! choice the per-column chooser of the previous design could not express.
//!
//! Every directory operation (filter, gather, concat, slice, id decode,
//! compaction) dispatches per segment on its encoding; evolution operators
//! fan out one task per (column × segment) and splice per-segment
//! [`EncodedChunk`]s back through an [`EncodedAssembler`], which seals each
//! output segment in the encoding its input pieces arrive in. Fresh chunks
//! emitted by the operators pick their encoding through the stats-driven
//! per-segment chooser ([`choose_encoding_from_stats`]): run-level output
//! lands as RLE, dense rewrites as bitmap — so SMOs produce mixed
//! directories for free.

use crate::dictionary::Dictionary;
use crate::error::StorageError;
use crate::rle_segment::RleSegment;
use crate::segment::{Segment, SegmentChunk, Zone};
use crate::store::SegSlot;
use crate::value::{Value, ValueType};
use cods_bitmap::{OneStreamBuilder, RleSeq, Wah};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// The physical encoding of one segment (or, historically, a whole column).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Encoding {
    /// One WAH bitmap per value per segment (the paper's default layout).
    Bitmap,
    /// Run-length encoded value ids per segment (clustered row ranges).
    Rle,
}

impl std::fmt::Display for Encoding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Encoding::Bitmap => write!(f, "bitmap"),
            Encoding::Rle => write!(f, "rle"),
        }
    }
}

/// The stats-driven encoding choice, shared by the per-segment chooser, the
/// operators' chunk emitters, and compaction's mixed-group transcoder.
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
/// test). Everything else — high-cardinality or uniform-random data, where
/// runs ≈ rows — stays bitmap, the paper's default layout and the
/// operators' native form.
pub fn choose_encoding_from_stats(runs: u64, rows: u64, distinct: u64, segments: u64) -> Encoding {
    if rows == 0 {
        return Encoding::Bitmap;
    }
    let runs = runs.max(1);
    if 4 * runs <= rows || (runs <= 2 * (distinct + segments) && 2 * runs <= rows) {
        Encoding::Rle
    } else {
        Encoding::Bitmap
    }
}

/// One entry of the unified segment directory: an `Arc`-shared row-range
/// segment in either encoding, with a common stats surface.
#[derive(Clone, Debug, PartialEq)]
pub enum SegmentEnc {
    /// Sparse per-value WAH bitmaps over the segment's rows.
    Bitmap(Arc<Segment>),
    /// The segment's run sequence over global value ids.
    Rle(Arc<RleSegment>),
}

impl SegmentEnc {
    /// This segment's physical encoding.
    pub fn encoding(&self) -> Encoding {
        match self {
            SegmentEnc::Bitmap(_) => Encoding::Bitmap,
            SegmentEnc::Rle(_) => Encoding::Rle,
        }
    }

    /// Number of rows covered.
    pub fn rows(&self) -> u64 {
        match self {
            SegmentEnc::Bitmap(s) => s.rows(),
            SegmentEnc::Rle(s) => s.rows(),
        }
    }

    /// The ascending value ids present in this segment.
    pub fn present_ids(&self) -> &[u32] {
        match self {
            SegmentEnc::Bitmap(s) => s.present_ids(),
            SegmentEnc::Rle(s) => s.present_ids(),
        }
    }

    /// Cached per-present-id row counts, parallel to
    /// [`SegmentEnc::present_ids`].
    pub fn ones(&self) -> &[u64] {
        match self {
            SegmentEnc::Bitmap(s) => s.ones(),
            SegmentEnc::Rle(s) => s.ones(),
        }
    }

    /// Number of distinct values present.
    pub fn distinct_count(&self) -> usize {
        match self {
            SegmentEnc::Bitmap(s) => s.distinct_count(),
            SegmentEnc::Rle(s) => s.distinct_count(),
        }
    }

    /// Returns `true` when `id` occurs in this segment (O(log present)).
    pub fn contains_id(&self, id: u32) -> bool {
        match self {
            SegmentEnc::Bitmap(s) => s.contains_id(id),
            SegmentEnc::Rle(s) => s.contains_id(id),
        }
    }

    /// Number of rows carrying `id` (0 when absent).
    pub fn count_for(&self, id: u32) -> u64 {
        match self {
            SegmentEnc::Bitmap(s) => s.count_for(id),
            SegmentEnc::Rle(s) => s.count_for(id),
        }
    }

    /// Compressed payload bytes (cached).
    pub fn compressed_bytes(&self) -> usize {
        match self {
            SegmentEnc::Bitmap(s) => s.compressed_bytes(),
            SegmentEnc::Rle(s) => s.compressed_bytes(),
        }
    }

    /// Total maximal constant-value runs in row order — exact for RLE
    /// (stored runs), computed from compressed WAH interval walks for
    /// bitmap segments. Never decompresses per row.
    pub fn run_count(&self) -> u64 {
        match self {
            SegmentEnc::Bitmap(s) => s.run_count(),
            SegmentEnc::Rle(s) => s.num_runs() as u64,
        }
    }

    /// What the stats-driven chooser would pick for this segment, from its
    /// own run/row/distinct statistics.
    pub fn choose_encoding(&self) -> Encoding {
        choose_encoding_from_stats(
            self.run_count(),
            self.rows(),
            self.distinct_count() as u64,
            1,
        )
    }

    /// Re-encodes this segment to `encoding` (shares the `Arc` when already
    /// there). O(runs) per present value toward bitmap, O(rows) toward RLE.
    pub fn recoded(&self, encoding: Encoding) -> SegmentEnc {
        match (self, encoding) {
            (SegmentEnc::Bitmap(s), Encoding::Rle) => {
                SegmentEnc::Rle(Arc::new(RleSegment::from_bitmap_segment(s)))
            }
            (SegmentEnc::Rle(s), Encoding::Bitmap) => {
                SegmentEnc::Bitmap(Arc::new(s.to_bitmap_segment()))
            }
            _ => self.clone(),
        }
    }

    /// Rewrites the segment under an id translation. O(payload).
    pub(crate) fn remap(&self, map: &[Option<u32>]) -> SegmentEnc {
        match self {
            SegmentEnc::Bitmap(s) => SegmentEnc::Bitmap(Arc::new(s.remap(map))),
            SegmentEnc::Rle(s) => SegmentEnc::Rle(Arc::new(s.remap(map))),
        }
    }

    /// Validates the per-segment invariants.
    pub fn check_invariants(&self) -> Result<(), String> {
        match self {
            SegmentEnc::Bitmap(s) => s.check_invariants(),
            SegmentEnc::Rle(s) => s.check_invariants(),
        }
    }
}

/// The per-segment output of one operator task, in either encoding, not yet
/// aligned to segment boundaries.
#[derive(Debug)]
pub enum EncodedChunk {
    /// Sparse per-value bitmaps over a run of output rows.
    Bitmap(SegmentChunk),
    /// A run piece over global value ids.
    Rle(RleSeq),
}

/// Converts a run sequence into a bitmap chunk: O(runs) builder appends via
/// the same dense/sparse adaptive store as [`SegmentChunk::from_ids`], never
/// one push per row.
pub(crate) fn seq_to_bitmap_chunk(seq: &RleSeq, rows: u64, distinct_hint: usize) -> SegmentChunk {
    debug_assert_eq!(seq.len(), rows);
    let mut ids = Vec::new();
    let mut bitmaps = Vec::new();
    if (distinct_hint as u64) <= rows.max(4096) {
        let mut builders: Vec<OneStreamBuilder> = Vec::new();
        builders.resize_with(distinct_hint, OneStreamBuilder::new);
        let mut active: Vec<u32> = Vec::new();
        for (id, start, len) in seq.iter_runs() {
            let b = &mut builders[id as usize];
            if b.ones() == 0 {
                active.push(id);
            }
            b.push_run(start, len);
        }
        active.sort_unstable();
        for id in active {
            let b = std::mem::replace(&mut builders[id as usize], OneStreamBuilder::new());
            ids.push(id);
            bitmaps.push(b.finish(rows));
        }
    } else {
        let mut builders: HashMap<u32, OneStreamBuilder> = HashMap::new();
        for (id, start, len) in seq.iter_runs() {
            builders.entry(id).or_default().push_run(start, len);
        }
        let mut pairs: Vec<(u32, OneStreamBuilder)> = builders.into_iter().collect();
        pairs.sort_unstable_by_key(|(id, _)| *id);
        for (id, b) in pairs {
            ids.push(id);
            bitmaps.push(b.finish(rows));
        }
    }
    SegmentChunk { ids, bitmaps, rows }
}

impl EncodedChunk {
    /// Output rows covered by this chunk.
    pub fn rows(&self) -> u64 {
        match self {
            EncodedChunk::Bitmap(c) => c.rows,
            EncodedChunk::Rle(s) => s.len(),
        }
    }

    /// Builds a chunk from a stream of value ids, one per output row in
    /// order, in an explicitly requested encoding.
    pub fn from_ids<I: IntoIterator<Item = u32>>(
        encoding: Encoding,
        ids: I,
        rows: u64,
        distinct_hint: usize,
    ) -> EncodedChunk {
        match encoding {
            Encoding::Bitmap => {
                EncodedChunk::Bitmap(SegmentChunk::from_ids(ids, rows, distinct_hint))
            }
            Encoding::Rle => {
                let mut seq = RleSeq::new();
                for id in ids {
                    seq.push(id);
                }
                debug_assert_eq!(seq.len(), rows);
                EncodedChunk::Rle(seq)
            }
        }
    }

    /// Builds a chunk from a value-id stream, letting the per-segment
    /// chooser pick the encoding from the chunk's own run/row/distinct
    /// statistics (a pinned uniform source column forces its encoding).
    /// The ids are accumulated run-level first — run detection is O(1) per
    /// row — and only converted to bitmaps when the chooser says so.
    pub fn from_ids_for<I: IntoIterator<Item = u32>>(
        col: &EncodedColumn,
        ids: I,
        rows: u64,
    ) -> EncodedChunk {
        let mut seq = RleSeq::new();
        for id in ids {
            seq.push(id);
        }
        debug_assert_eq!(seq.len(), rows);
        Self::from_seq_for(col, seq)
    }

    /// Wraps an operator-emitted run sequence as a chunk in the encoding
    /// the per-segment chooser picks for it: run-level output lands as RLE,
    /// dense rewrites convert to a bitmap chunk (O(runs), not O(rows)).
    pub fn from_seq_for(col: &EncodedColumn, seq: RleSeq) -> EncodedChunk {
        let rows = seq.len();
        let mut distinct_ids: Vec<u32> = seq.runs().iter().map(|&(id, _)| id).collect();
        distinct_ids.sort_unstable();
        distinct_ids.dedup();
        match col.chunk_encoding(seq.num_runs() as u64, rows, distinct_ids.len() as u64) {
            Encoding::Rle => EncodedChunk::Rle(seq),
            Encoding::Bitmap => {
                EncodedChunk::Bitmap(seq_to_bitmap_chunk(&seq, rows, col.distinct_count()))
            }
        }
    }
}

// ---------------------------------------------------------------------
// The unified assembler
// ---------------------------------------------------------------------

/// One not-yet-sealed piece of the current output segment.
#[derive(Debug)]
enum Piece {
    Bitmap(SegmentChunk),
    Rle(RleSeq),
}

impl Piece {
    fn rows(&self) -> u64 {
        match self {
            Piece::Bitmap(c) => c.rows,
            Piece::Rle(s) => s.len(),
        }
    }

    /// Extracts the row range `[lo, hi)` of this piece.
    fn slice(&self, lo: u64, hi: u64) -> Piece {
        match self {
            Piece::Bitmap(c) => {
                let mut ids = Vec::new();
                let mut bitmaps = Vec::new();
                for (&id, bm) in c.ids.iter().zip(&c.bitmaps) {
                    let piece = bm.slice(lo, hi);
                    if piece.any() {
                        ids.push(id);
                        bitmaps.push(piece);
                    }
                }
                Piece::Bitmap(SegmentChunk {
                    ids,
                    bitmaps,
                    rows: hi - lo,
                })
            }
            Piece::Rle(s) => Piece::Rle(s.slice(lo, hi)),
        }
    }
}

/// Splices a stream of [`EncodedChunk`]s into a unified segment directory.
/// Chunks may arrive in either encoding; each sealed output segment keeps
/// the encoding of its pieces — all-RLE pieces seal as an RLE segment,
/// anything touched by a bitmap piece seals as a bitmap segment (RLE pieces
/// are transcoded in O(their runs)). Values absent from a piece are
/// zero-padded lazily, so cost is proportional to the values present.
pub struct EncodedAssembler {
    target: u64,
    /// Explicit piece-size schedule (compaction regrouping); when present,
    /// each sealed segment consumes the next entry.
    schedule: Option<std::collections::VecDeque<u64>>,
    cur: Vec<Piece>,
    cur_len: u64,
    segments: Vec<SegmentEnc>,
}

impl EncodedAssembler {
    /// An assembler producing segments of `target` rows (last may be short).
    pub fn new(target: u64) -> EncodedAssembler {
        assert!(target > 0, "segment size must be positive");
        EncodedAssembler {
            target,
            schedule: None,
            cur: Vec::new(),
            cur_len: 0,
            segments: Vec::new(),
        }
    }

    /// An assembler producing segments of the given explicit sizes, in
    /// order. The pushed chunks must cover exactly `pieces.iter().sum()`
    /// rows. Used by compaction to regroup a run of segments.
    pub fn with_piece_sizes(pieces: Vec<u64>) -> EncodedAssembler {
        assert!(
            pieces.iter().all(|&p| p > 0),
            "piece sizes must be positive"
        );
        let mut schedule: std::collections::VecDeque<u64> = pieces.into();
        let target = schedule.pop_front().unwrap_or(u64::MAX);
        EncodedAssembler {
            target,
            schedule: Some(schedule),
            cur: Vec::new(),
            cur_len: 0,
            segments: Vec::new(),
        }
    }

    fn advance_target(&mut self) {
        if let Some(schedule) = &mut self.schedule {
            self.target = schedule.pop_front().unwrap_or(u64::MAX);
        }
    }

    /// Appends a chunk, splitting it across segment boundaries as needed.
    pub fn push_chunk(&mut self, chunk: EncodedChunk) {
        let piece = match chunk {
            EncodedChunk::Bitmap(c) => Piece::Bitmap(c),
            EncodedChunk::Rle(s) => Piece::Rle(s),
        };
        let rows = piece.rows();
        if rows == 0 {
            return;
        }
        let mut offset = 0u64;
        let mut whole = Some(piece);
        while offset < rows {
            let room = self.target - self.cur_len;
            let take = room.min(rows - offset);
            let part = if offset == 0 && take == rows {
                whole.take().expect("whole piece consumed once")
            } else {
                whole
                    .as_ref()
                    .expect("sliced pieces keep the original")
                    .slice(offset, offset + take)
            };
            self.cur.push(part);
            self.cur_len += take;
            offset += take;
            if self.cur_len == self.target {
                self.seal();
            }
        }
    }

    fn seal(&mut self) {
        if self.cur_len == 0 {
            return;
        }
        let len = self.cur_len;
        let pieces = std::mem::take(&mut self.cur);
        let seg = if pieces.iter().all(|p| matches!(p, Piece::Rle(_))) {
            let mut seq = RleSeq::new();
            for p in pieces {
                match p {
                    Piece::Rle(s) => seq.append_seq(&s),
                    Piece::Bitmap(_) => unreachable!("checked all-RLE"),
                }
            }
            debug_assert_eq!(seq.len(), len);
            SegmentEnc::Rle(Arc::new(RleSegment::new(seq)))
        } else if pieces.len() == 1 {
            // Single bitmap piece exactly filling the segment: move it.
            match pieces.into_iter().next().expect("one piece") {
                Piece::Bitmap(c) => {
                    let pairs: Vec<(u32, Wah)> = c
                        .ids
                        .into_iter()
                        .zip(c.bitmaps)
                        .filter(|(_, bm)| bm.any())
                        .collect();
                    SegmentEnc::Bitmap(Arc::new(Segment::new(len, pairs)))
                }
                Piece::Rle(_) => unreachable!("single RLE piece took the all-RLE path"),
            }
        } else {
            // Mixed or multi-piece: accumulate per-id bitmaps with lazy
            // zero padding (the shared [`crate::segment::PaddedBitmaps`]
            // idiom); RLE pieces contribute their runs directly.
            let mut acc = crate::segment::PaddedBitmaps::new();
            let mut offset = 0u64;
            for p in &pieces {
                let piece_rows = p.rows();
                match p {
                    Piece::Bitmap(c) => {
                        for (&id, bm) in c.ids.iter().zip(&c.bitmaps) {
                            if bm.any() {
                                acc.append_bitmap(id, bm, offset);
                            }
                        }
                    }
                    Piece::Rle(s) => {
                        for (id, start, run_len) in s.iter_runs() {
                            acc.append_run(id, offset + start, run_len);
                        }
                    }
                }
                offset += piece_rows;
            }
            SegmentEnc::Bitmap(Arc::new(Segment::new(len, acc.finish(len))))
        };
        self.segments.push(seg);
        self.cur_len = 0;
        self.advance_target();
    }

    /// Seals the trailing partial segment and returns the directory.
    pub fn finish(mut self) -> Vec<SegmentEnc> {
        self.seal();
        self.segments
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
        total += s.rows();
    }
    (starts, total)
}

/// Derives every segment's zone from its present-id stats via the
/// dictionary's value order — the stats-level fallback for paths that
/// cannot splice zones from inputs. Never touches payload.
fn derive_zones(dict: &Dictionary, segments: &[SegmentEnc]) -> Vec<Zone> {
    if segments.is_empty() {
        return Vec::new();
    }
    let ranks = dict.value_order().ranks();
    segments
        .iter()
        .map(|s| Zone::of_ids(s.present_ids(), ranks))
        .collect()
}

/// An immutable segmented column: a column-global dictionary plus one
/// directory of `Arc`-shared row-range segments, each in its own encoding
/// ([`SegmentEnc`]), with per-segment zone maps and encoding pins.
#[derive(Clone, Debug, PartialEq)]
pub struct EncodedColumn {
    ty: ValueType,
    dict: Dictionary,
    segments: Vec<SegSlot>,
    /// Start row of each segment (parallel to `segments`).
    starts: Vec<u64>,
    /// Per-segment zone maps (parallel to `segments`).
    zones: Vec<Zone>,
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

    /// Builds a column from a value slice with the default segment size
    /// (bitmap segments — the paper's default layout).
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

    /// Builds a column from a dictionary and a dense row → id array
    /// (bitmap segments).
    ///
    /// # Panics
    /// Panics if any id is out of range for the dictionary.
    pub fn from_ids(ty: ValueType, dict: Dictionary, ids: &[u32]) -> EncodedColumn {
        Self::from_ids_with(ty, dict, ids, crate::segment::DEFAULT_SEGMENT_ROWS)
    }

    /// [`EncodedColumn::from_ids`] with an explicit segment size.
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
        let mut asm = EncodedAssembler::new(segment_rows);
        for chunk in ids.chunks(segment_rows as usize) {
            asm.push_chunk(EncodedChunk::Bitmap(SegmentChunk::from_ids(
                chunk.iter().copied(),
                chunk.len() as u64,
                dict.len(),
            )));
        }
        Self::from_segments(ty, dict, asm.finish(), segment_rows)
    }

    /// Assembles a column from a dictionary and *full-length* per-value
    /// bitmaps (one per dictionary id), segmenting them. Validates the
    /// partition invariant in debug builds. This is the compatibility
    /// constructor for callers holding the monolithic representation (the
    /// version-1 on-disk format and O(1) default-fill columns).
    pub fn from_parts(
        ty: ValueType,
        dict: Dictionary,
        bitmaps: Vec<Wah>,
        rows: u64,
    ) -> Result<EncodedColumn, StorageError> {
        if dict.len() != bitmaps.len() {
            return Err(StorageError::Corrupt(format!(
                "dictionary has {} values but {} bitmaps supplied",
                dict.len(),
                bitmaps.len()
            )));
        }
        for (id, bm) in bitmaps.iter().enumerate() {
            if bm.len() != rows {
                return Err(StorageError::Corrupt(format!(
                    "bitmap {id} has length {} but column has {rows} rows",
                    bm.len()
                )));
            }
        }
        let segment_rows = crate::segment::DEFAULT_SEGMENT_ROWS;
        let seg_count = rows.div_ceil(segment_rows) as usize;
        let mut per_segment: Vec<Vec<(u32, Wah)>> = vec![Vec::new(); seg_count];
        for (id, bm) in bitmaps.iter().enumerate() {
            if !bm.any() {
                continue;
            }
            for (s, piece) in bm.split_into(segment_rows).into_iter().enumerate() {
                if piece.any() {
                    per_segment[s].push((id as u32, piece));
                }
            }
        }
        let segments: Vec<SegmentEnc> = per_segment
            .into_iter()
            .enumerate()
            .map(|(s, pairs)| {
                let seg_rows = segment_rows.min(rows - s as u64 * segment_rows);
                SegmentEnc::Bitmap(Arc::new(Segment::new(seg_rows, pairs)))
            })
            .collect();
        let col = Self::from_segments(ty, dict, segments, segment_rows);
        debug_assert_eq!(col.rows, rows);
        debug_assert!(
            col.check_invariants().is_ok(),
            "{:?}",
            col.check_invariants()
        );
        Ok(col)
    }

    /// Assembles a column from a dictionary and segments assumed
    /// consistent, without compaction. Callers that cannot assume
    /// consistency (e.g. decoding from disk) must run
    /// [`EncodedColumn::check_invariants`] afterwards.
    pub fn from_segments(
        ty: ValueType,
        dict: Dictionary,
        segments: Vec<SegmentEnc>,
        segment_rows: u64,
    ) -> EncodedColumn {
        let zones = derive_zones(&dict, &segments);
        let slots = segments.into_iter().map(SegSlot::fresh).collect();
        Self::from_slots_zoned(ty, dict, slots, zones, segment_rows)
    }

    /// [`EncodedColumn::from_segments`] over already-built directory slots
    /// with their zone maps as read from disk — the lazy-open path, where
    /// segments arrive paged out. The zones must be parallel to `segments`
    /// and consistent with their present-id stats;
    /// [`EncodedColumn::check_invariants`] verifies both.
    pub(crate) fn from_slots_zoned(
        ty: ValueType,
        dict: Dictionary,
        segments: Vec<SegSlot>,
        zones: Vec<Zone>,
        segment_rows: u64,
    ) -> EncodedColumn {
        debug_assert_eq!(segments.len(), zones.len());
        let (starts, rows) = starts_of(&segments);
        let seg_pins = vec![false; segments.len()];
        EncodedColumn {
            ty,
            dict,
            segments,
            starts,
            zones,
            seg_pins,
            segment_rows,
            rows,
            pinned: false,
        }
    }

    /// Assembles a column from a dictionary and already-built segments,
    /// compacting the dictionary to the values actually present — the
    /// constructor the segment-parallel operators funnel into.
    pub fn from_segments_compacting(
        ty: ValueType,
        dict: Dictionary,
        segments: Vec<SegmentEnc>,
        segment_rows: u64,
    ) -> EncodedColumn {
        let mut present = vec![false; dict.len()];
        for seg in &segments {
            for &id in seg.present_ids() {
                present[id as usize] = true;
            }
        }
        if present.iter().all(|&p| p) {
            return Self::from_segments(ty, dict, segments, segment_rows);
        }
        let (compact_dict, mapping) = dict.compact(|id| present[id as usize]);
        let segments: Vec<SegmentEnc> = segments.iter().map(|s| s.remap(&mapping)).collect();
        Self::from_segments(ty, compact_dict, segments, segment_rows)
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
        self.segments.iter().map(|s| s.rows()).collect()
    }

    /// The physical encoding of segment `idx`.
    pub fn segment_encoding(&self, idx: usize) -> Encoding {
        self.segments[idx].encoding()
    }

    /// `(bitmap segments, RLE segments)` — the directory's encoding
    /// histogram.
    pub fn encoding_counts(&self) -> (usize, usize) {
        let rle = self
            .segments
            .iter()
            .filter(|s| s.encoding() == Encoding::Rle)
            .count();
        (self.segments.len() - rle, rle)
    }

    /// The single encoding every segment shares, when the directory is
    /// homogeneous. An empty directory counts as uniformly bitmap (the
    /// default layout new data lands in).
    pub fn uniform_encoding(&self) -> Option<Encoding> {
        let mut it = self.segments.iter().map(|s| s.encoding());
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

    /// Per-segment zone maps, parallel to [`EncodedColumn::segments`].
    pub fn zones(&self) -> &[Zone] {
        &self.zones
    }

    /// The zone map of segment `idx`.
    pub fn zone(&self, idx: usize) -> Zone {
        self.zones[idx]
    }

    /// Distinct values present in the densest segment (≤ `distinct_count`).
    pub fn max_segment_distinct(&self) -> usize {
        self.segments
            .iter()
            .map(|s| s.distinct_count())
            .max()
            .unwrap_or(0)
    }

    /// Total maximal constant-value runs across the directory, summed from
    /// per-segment stats (exact RLE runs; compressed WAH interval walks).
    pub fn run_count(&self) -> u64 {
        self.segments.iter().map(|s| s.run_count()).sum()
    }

    // ---- pins and the chooser ----

    /// Returns `true` when the whole column's encoding was pinned by an
    /// explicit recode (the adaptive chooser leaves pinned columns alone).
    pub fn encoding_pinned(&self) -> bool {
        self.pinned
    }

    /// Sets the column-level encoding pin.
    pub fn set_encoding_pinned(&mut self, pinned: bool) {
        self.pinned = pinned;
    }

    /// Returns `true` when segment `idx` is pinned — by a segment-range
    /// recode or because the whole column is.
    pub fn segment_pinned(&self, idx: usize) -> bool {
        self.pinned || self.seg_pins[idx]
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
    /// chooser itself now decides segment by segment.
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

    /// What the per-segment chooser would pick for segment `idx`, from that
    /// segment's own run/row/distinct statistics.
    pub fn choose_segment_encoding(&self, idx: usize) -> Encoding {
        self.segments[idx].choose_encoding()
    }

    /// The encoding an operator should emit a fresh output chunk in, given
    /// the chunk's own statistics: a pinned uniform column forces its
    /// encoding; otherwise the per-segment chooser decides.
    pub fn chunk_encoding(&self, runs: u64, rows: u64, distinct: u64) -> Encoding {
        if self.pinned {
            if let Some(e) = self.uniform_encoding() {
                return e;
            }
        }
        choose_encoding_from_stats(runs, rows, distinct, 1)
    }

    /// Returns `true` when [`EncodedColumn::auto_recoded`] would change
    /// some segment — used by table-level passes to share untouched columns
    /// by reference.
    pub fn needs_auto_recode(&self) -> bool {
        if self.pinned {
            return false;
        }
        self.segments
            .iter()
            .zip(&self.seg_pins)
            .any(|(s, &pin)| !pin && s.choose_encoding() != s.encoding())
    }

    /// Re-encodes every unpinned segment to the per-segment chooser's pick
    /// (its own run/row/distinct stats). Pinned segments — and every
    /// segment of a column-pinned column — are left alone. Invoked
    /// automatically after `cluster_by` and threshold-triggered after
    /// UNION's compaction.
    pub fn auto_recoded(&self) -> Result<EncodedColumn, StorageError> {
        if !self.needs_auto_recode() {
            return Ok(self.clone());
        }
        let mut out = self.clone();
        for (seg, &pin) in out.segments.iter_mut().zip(&self.seg_pins) {
            if !pin {
                *seg = seg.recoded(seg.choose_encoding());
            }
        }
        Ok(out)
    }

    /// Re-encodes every segment to `encoding` (a no-op clone when already
    /// uniform there). Values, dictionary, segment boundaries, zones, and
    /// pins are preserved.
    pub fn recode(&self, encoding: Encoding) -> Result<EncodedColumn, StorageError> {
        if self.is_uniform(encoding) {
            return Ok(self.clone());
        }
        let mut out = self.clone();
        for seg in out.segments.iter_mut() {
            *seg = seg.recoded(encoding);
        }
        Ok(out)
    }

    /// Re-encodes the segments with indices in `range` to `encoding` and
    /// *pins* each of them against the chooser — the segment-range form of
    /// an explicit recode. Boundaries, zones, and other segments are
    /// untouched.
    pub fn recode_segments(
        &self,
        range: Range<usize>,
        encoding: Encoding,
    ) -> Result<EncodedColumn, StorageError> {
        if range.start > range.end || range.end > self.segments.len() {
            return Err(StorageError::RowMismatch(format!(
                "segment range {}..{} out of bounds for {} segments",
                range.start,
                range.end,
                self.segments.len()
            )));
        }
        let mut out = self.clone();
        for idx in range {
            out.segments[idx] = out.segments[idx].recoded(encoding);
            out.seg_pins[idx] = true;
            // An explicitly recoded segment is also pinned in the buffer
            // cache: the user singled it out, so it stays resident.
            out.segments[idx].set_pinned(true);
        }
        Ok(out)
    }

    /// Clears the pins of the segments in `range` and re-encodes each to
    /// the per-segment chooser's pick — the segment-range form of
    /// `recode … auto`.
    pub fn auto_recode_segments(&self, range: Range<usize>) -> Result<EncodedColumn, StorageError> {
        if range.start > range.end || range.end > self.segments.len() {
            return Err(StorageError::RowMismatch(format!(
                "segment range {}..{} out of bounds for {} segments",
                range.start,
                range.end,
                self.segments.len()
            )));
        }
        let mut out = self.clone();
        for idx in range {
            out.seg_pins[idx] = false;
            out.segments[idx] = out.segments[idx].recoded(out.segments[idx].choose_encoding());
            out.segments[idx].set_pinned(false);
        }
        Ok(out)
    }

    // ---- data access ----

    /// The value stored at `row` (point probe; intended for display and
    /// debugging, not bulk scans — use [`EncodedColumn::value_ids`]).
    pub fn value_at(&self, row: u64) -> &Value {
        assert!(row < self.rows, "row {row} out of range {}", self.rows);
        let seg_idx = self.segment_of_row(row);
        let local = row - self.starts[seg_idx];
        let id = match self.segments[seg_idx].enc() {
            SegmentEnc::Bitmap(s) => s
                .id_at(local)
                .expect("partition invariant violated: row has no value"),
            SegmentEnc::Rle(s) => s.seq().get(local),
        };
        self.dict.value(id)
    }

    /// Materializes the dense row → value-id array in one pass over the
    /// compressed payloads (O(rows + compressed words)). The
    /// sequential-scan primitive of the CODS algorithms: it never touches
    /// dictionary values, only ids.
    pub fn value_ids(&self) -> Vec<u32> {
        self.ids_range(0..self.rows)
    }

    /// Materializes the row → value-id array of `range` only, decoding
    /// just the segments that overlap it — the batch-decode primitive of
    /// the streaming scan surface: a server streaming a table in
    /// segment-sized batches touches (and faults in) one batch worth of
    /// payload at a time, never the whole column.
    ///
    /// Panics when a paged-out segment cannot be faulted back in; the
    /// served read path uses [`EncodedColumn::try_ids_range`] instead.
    pub fn ids_range(&self, range: Range<u64>) -> Vec<u32> {
        self.try_ids_range(range)
            .unwrap_or_else(|e| panic!("segment fault failed: {e}"))
    }

    /// [`EncodedColumn::ids_range`] that reports a failed fault-in (I/O
    /// error, corrupt payload) as a typed error instead of panicking.
    pub fn try_ids_range(&self, range: Range<u64>) -> Result<Vec<u32>, StorageError> {
        assert!(
            range.start <= range.end && range.end <= self.rows,
            "range {range:?} out of bounds for {} rows",
            self.rows
        );
        let mut out = vec![u32::MAX; (range.end - range.start) as usize];
        for (seg, &start) in self.segments.iter().zip(&self.starts) {
            let seg_end = start + seg.rows();
            if seg_end <= range.start {
                continue;
            }
            if start >= range.end {
                break;
            }
            let lo = range.start.max(start);
            let hi = range.end.min(seg_end);
            let dst = &mut out[(lo - range.start) as usize..(hi - range.start) as usize];
            match seg.try_enc()? {
                SegmentEnc::Bitmap(s) => {
                    if lo == start && hi == seg_end {
                        s.fill_ids(dst);
                    } else {
                        // Partial overlap: bitmap payloads decode whole
                        // segments; clip through a scratch buffer.
                        let mut scratch = vec![u32::MAX; seg.rows() as usize];
                        s.fill_ids(&mut scratch);
                        dst.copy_from_slice(&scratch[(lo - start) as usize..(hi - start) as usize]);
                    }
                }
                SegmentEnc::Rle(s) => {
                    let mut pos = start;
                    for &(id, n) in s.seq().runs() {
                        let run_end = pos + n;
                        if run_end > lo && pos < hi {
                            let a = lo.max(pos);
                            let b = hi.min(run_end);
                            dst[(a - lo) as usize..(b - lo) as usize].fill(id);
                        }
                        pos = run_end;
                        if pos >= hi {
                            break;
                        }
                    }
                }
            }
        }
        debug_assert!(out.iter().all(|&i| i != u32::MAX), "uncovered row");
        Ok(out)
    }

    /// Decodes `range` as maximal `(value id, length)` runs, coalesced
    /// across segment boundaries. RLE segments contribute their runs in
    /// O(overlapping runs) without touching per-row data; bitmap segments
    /// decode and coalesce. This is the accessor the vectorized group-by
    /// kernel aggregates over: clustered columns cost O(runs), not O(rows).
    pub fn runs_range(&self, range: Range<u64>) -> Vec<(u32, u64)> {
        assert!(
            range.start <= range.end && range.end <= self.rows,
            "range {range:?} out of bounds for {} rows",
            self.rows
        );
        fn push(out: &mut Vec<(u32, u64)>, id: u32, n: u64) {
            if n == 0 {
                return;
            }
            match out.last_mut() {
                Some((last, len)) if *last == id => *len += n,
                _ => out.push((id, n)),
            }
        }
        let mut out: Vec<(u32, u64)> = Vec::new();
        for (seg, &start) in self.segments.iter().zip(&self.starts) {
            let seg_end = start + seg.rows();
            if seg_end <= range.start {
                continue;
            }
            if start >= range.end {
                break;
            }
            let lo = range.start.max(start);
            let hi = range.end.min(seg_end);
            match seg.enc() {
                SegmentEnc::Bitmap(s) => {
                    let mut scratch = vec![u32::MAX; seg.rows() as usize];
                    s.fill_ids(&mut scratch);
                    for &id in &scratch[(lo - start) as usize..(hi - start) as usize] {
                        push(&mut out, id, 1);
                    }
                }
                SegmentEnc::Rle(s) => {
                    let mut pos = start;
                    for &(id, n) in s.seq().runs() {
                        let run_end = pos + n;
                        if run_end > lo && pos < hi {
                            let a = lo.max(pos);
                            let b = hi.min(run_end);
                            push(&mut out, id, b - a);
                        }
                        pos = run_end;
                        if pos >= hi {
                            break;
                        }
                    }
                }
            }
        }
        debug_assert_eq!(
            out.iter().map(|&(_, n)| n).sum::<u64>(),
            range.end - range.start,
            "runs must cover the range"
        );
        out
    }

    /// Decodes all rows to values (display/test helper).
    pub fn values(&self) -> Vec<Value> {
        self.value_ids()
            .into_iter()
            .map(|id| self.dict.value(id).clone())
            .collect()
    }

    /// Materializes the full-length bitmap of value id `id` by splicing the
    /// per-segment payloads (zero fills where the value is absent).
    pub fn value_bitmap(&self, id: u32) -> Wah {
        let mut out = Wah::new();
        for seg in &self.segments {
            // Present-id stats answer "absent here" without faulting the
            // payload — a value probe only pages in segments that carry it.
            if !seg.contains_id(id) {
                out.append_run(false, seg.rows());
                continue;
            }
            match seg.enc() {
                SegmentEnc::Bitmap(s) => match s.bitmap_for(id) {
                    Some(bm) => out.append_bitmap(bm),
                    None => out.append_run(false, s.rows()),
                },
                SegmentEnc::Rle(s) => s.append_value_bitmap(id, &mut out),
            }
        }
        out
    }

    /// Materialized bitmap of a value, if it occurs in the column.
    pub fn bitmap_of(&self, v: &Value) -> Option<Wah> {
        self.dict.id_of(v).map(|id| self.value_bitmap(id))
    }

    /// Number of rows carrying value id `id` (from segment stats; never
    /// touches payload).
    pub fn value_count(&self, id: u32) -> u64 {
        self.segments.iter().map(|s| s.count_for(id)).sum()
    }

    /// Splits a non-decreasing global position list into per-segment spans:
    /// `(segment index, range into positions)`. Shared by the serial filter
    /// path and the segment-parallel executors in `cods` core.
    pub fn position_spans(&self, positions: &[u64]) -> Vec<(usize, Range<usize>)> {
        crate::segment::position_spans(&self.segment_sizes(), positions)
    }

    /// Splits a whole-column selection mask along this column's segment
    /// boundaries (one pass over the mask's compressed runs).
    pub fn split_mask(&self, mask: &Wah) -> Vec<Wah> {
        assert_eq!(mask.len(), self.rows, "mask length mismatch");
        mask.split_sizes(&self.segment_sizes())
    }

    // ---- per-segment filtering ----

    /// The paper's *bitmap filtering* restricted to one segment: shrink
    /// segment `seg_idx` to the rows listed in `positions` (global,
    /// non-decreasing, all within the segment), producing an unaligned
    /// chunk in **that segment's** encoding — the per-(column × segment)
    /// task body of the parallel operators.
    pub fn filter_segment_chunk(&self, seg_idx: usize, positions: &[u64]) -> EncodedChunk {
        let start = self.starts[seg_idx];
        match self.segments[seg_idx].enc() {
            SegmentEnc::Bitmap(seg) => {
                if positions.is_empty() {
                    return EncodedChunk::Bitmap(SegmentChunk::empty());
                }
                let local: Vec<u64> = positions.iter().map(|&p| p - start).collect();
                let m = local.len() as u64;
                let v = seg.distinct_count() as u64;
                let mut ids = Vec::new();
                let mut bitmaps = Vec::new();
                if v * m <= 8 * seg.rows().max(1) {
                    // Few present values: filter each compressed bitmap.
                    for (&id, bm) in seg.present_ids().iter().zip(seg.bitmaps()) {
                        let f = bm.filter_positions(&local);
                        if f.any() {
                            ids.push(id);
                            bitmaps.push(f);
                        }
                    }
                } else {
                    // Many: one id-gather pass over the segment.
                    let mut local_ids = vec![u32::MAX; seg.rows() as usize];
                    seg.fill_local_slots(&mut local_ids);
                    let mut builders: Vec<OneStreamBuilder> =
                        vec![OneStreamBuilder::new(); seg.distinct_count()];
                    for (out_row, &p) in local.iter().enumerate() {
                        builders[local_ids[p as usize] as usize].push_one(out_row as u64);
                    }
                    for (&id, b) in seg.present_ids().iter().zip(builders) {
                        if b.ones() > 0 {
                            ids.push(id);
                            bitmaps.push(b.finish(m));
                        }
                    }
                }
                EncodedChunk::Bitmap(SegmentChunk {
                    ids,
                    bitmaps,
                    rows: m,
                })
            }
            SegmentEnc::Rle(seg) => {
                let local: Vec<u64> = positions.iter().map(|&p| p - start).collect();
                EncodedChunk::Rle(seg.seq().filter_positions(&local))
            }
        }
    }

    /// Mask-driven variant of [`EncodedColumn::filter_segment_chunk`]:
    /// shrink segment `seg_idx` to the set rows of `mask_seg`
    /// (segment-local), staying on the compressed form where the encoding
    /// allows.
    pub fn filter_segment_mask_chunk(&self, seg_idx: usize, mask_seg: &Wah) -> EncodedChunk {
        match self.segments[seg_idx].enc() {
            SegmentEnc::Bitmap(seg) => {
                assert_eq!(mask_seg.len(), seg.rows(), "segment mask length mismatch");
                let m = mask_seg.count_ones();
                if m == 0 {
                    return EncodedChunk::Bitmap(SegmentChunk::empty());
                }
                let v = seg.distinct_count() as u64;
                if v * m <= 8 * seg.rows().max(1) {
                    let mut ids = Vec::new();
                    let mut bitmaps = Vec::new();
                    for (&id, bm) in seg.present_ids().iter().zip(seg.bitmaps()) {
                        let f = bm.filter_bitmap(mask_seg);
                        if f.any() {
                            ids.push(id);
                            bitmaps.push(f);
                        }
                    }
                    EncodedChunk::Bitmap(SegmentChunk {
                        ids,
                        bitmaps,
                        rows: m,
                    })
                } else {
                    let start = self.starts[seg_idx];
                    let positions: Vec<u64> = mask_seg.iter_ones().map(|p| p + start).collect();
                    self.filter_segment_chunk(seg_idx, &positions)
                }
            }
            SegmentEnc::Rle(seg) => {
                assert_eq!(mask_seg.len(), seg.rows(), "segment mask length mismatch");
                // Run-level merge: each maximal selected interval of the
                // mask extracts the matching run slice — O(mask intervals +
                // selected runs), no per-row position materialization.
                let mut out = RleSeq::new();
                for (start, len) in mask_seg.iter_intervals() {
                    out.append_seq(&seg.seq().slice(start, start + len));
                }
                EncodedChunk::Rle(out)
            }
        }
    }

    /// An assembler for this column's chunks, targeting its nominal segment
    /// size.
    pub fn assembler(&self) -> EncodedAssembler {
        EncodedAssembler::new(self.nominal_segment_rows())
    }

    /// Finalizes an assembler's directory into a column sharing this
    /// column's type, dictionary (compacted to the surviving values),
    /// nominal segment size, and column-level pin.
    pub fn from_assembler_compacting(&self, asm: EncodedAssembler) -> EncodedColumn {
        Self::from_segments_compacting(self.ty, self.dict.clone(), asm.finish(), self.segment_rows)
            .with_meta_of(self)
    }

    /// The paper's *bitmap filtering*: shrink the column to the rows listed
    /// in `positions` (non-decreasing). Values that vanish are dropped and
    /// the dictionary compacted. Each segment's piece stays in that
    /// segment's encoding. Serial; the evolution operators in `cods` core
    /// run the same per-segment chunks in parallel.
    pub fn filter_positions(&self, positions: &[u64]) -> EncodedColumn {
        let mut asm = self.assembler();
        for (seg_idx, range) in self.position_spans(positions) {
            asm.push_chunk(self.filter_segment_chunk(seg_idx, &positions[range]));
        }
        self.from_assembler_compacting(asm)
    }

    /// Gather by an arbitrary (not necessarily sorted) row selection:
    /// output row `j` carries the value of input row `positions[j]`. Used
    /// by clustering/sorting. Chunks are emitted in the column's uniform
    /// encoding when it has one; a mixed column's chunks go through the
    /// per-segment chooser (structure is rebuilt anyway).
    pub fn gather(&self, positions: &[u64]) -> EncodedColumn {
        let ids = self.value_ids();
        let uniform = self.uniform_encoding();
        let mut asm = self.assembler();
        for chunk in positions.chunks(self.segment_rows.max(1) as usize) {
            let it = chunk.iter().map(|&p| ids[p as usize]);
            let rows = chunk.len() as u64;
            asm.push_chunk(match uniform {
                Some(enc) => EncodedChunk::from_ids(enc, it, rows, self.dict.len()),
                None => EncodedChunk::from_ids_for(self, it, rows),
            });
        }
        self.from_assembler_compacting(asm)
    }

    /// Bitmap filtering driven by a selection mask.
    pub fn filter_bitmap(&self, mask: &Wah) -> EncodedColumn {
        let masks = self.split_mask(mask);
        let mut asm = self.assembler();
        for (seg_idx, mask_seg) in masks.iter().enumerate() {
            if mask_seg.any() {
                asm.push_chunk(self.filter_segment_mask_chunk(seg_idx, mask_seg));
            }
        }
        self.from_assembler_compacting(asm)
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
        // Zones splice: ids are stable under the dictionary merge (self's
        // ids keep their values; other's translate to same-value ids), so
        // both sides' zones carry over without touching any stats.
        let mut zones = self.zones.clone();
        let mut seg_pins = self.seg_pins.clone();
        if identity {
            segments.extend(other.segments.iter().cloned());
            zones.extend(other.zones.iter().copied());
        } else {
            let map: Vec<Option<u32>> = other_map.iter().map(|&m| Some(m)).collect();
            segments.extend(other.segments.iter().map(|s| s.remap(&map)));
            zones.extend(other.zones.iter().map(|z| z.remap(&map)));
        }
        seg_pins.extend(other.seg_pins.iter().copied());
        let (starts, rows) = starts_of(&segments);
        Ok(EncodedColumn {
            ty: self.ty,
            dict,
            segments,
            starts,
            zones,
            seg_pins,
            segment_rows: self.segment_rows,
            rows,
            // An explicit pin on either input survives the union — the
            // chooser must not undo a recode the user asked for just
            // because the pinned side was the right operand.
            pinned: self.pinned || other.pinned,
        })
    }

    /// Extracts the row range `[start, end)`. Fully covered segments are
    /// shared by reference (keeping their encoding, zone, and pin) when no
    /// dictionary compaction is needed; partial segments rebuild in their
    /// own encoding.
    pub fn slice(&self, start: u64, end: u64) -> EncodedColumn {
        assert!(start <= end && end <= self.rows, "slice out of range");
        let mut parts: Vec<SegSlot> = Vec::new();
        let mut zones: Vec<Zone> = Vec::new();
        let mut seg_pins: Vec<bool> = Vec::new();
        let mut present = vec![false; self.dict.len()];
        let ranks = self.dict.value_order().ranks();
        for (i, (seg, &seg_start)) in self.segments.iter().zip(&self.starts).enumerate() {
            let seg_end = seg_start + seg.rows();
            if seg_end <= start || seg_start >= end {
                continue;
            }
            let lo = start.max(seg_start) - seg_start;
            let hi = end.min(seg_end) - seg_start;
            if lo == hi {
                continue;
            }
            let part = if lo == 0 && hi == seg.rows() {
                // Fully covered: the slot (with its encoding, zone, pin, and
                // residency state) carries over untouched — no fault.
                zones.push(self.zones[i]);
                seg.clone()
            } else {
                let rebuilt = match seg.enc() {
                    SegmentEnc::Bitmap(s) => {
                        let mut pairs = Vec::new();
                        for (&id, bm) in s.present_ids().iter().zip(s.bitmaps()) {
                            let piece = bm.slice(lo, hi);
                            if piece.any() {
                                pairs.push((id, piece));
                            }
                        }
                        SegmentEnc::Bitmap(Arc::new(Segment::new(hi - lo, pairs)))
                    }
                    SegmentEnc::Rle(s) => {
                        SegmentEnc::Rle(Arc::new(RleSegment::new(s.seq().slice(lo, hi))))
                    }
                };
                // Partial coverage may narrow the value range: re-derive
                // from the surviving present-id stats.
                zones.push(Zone::of_ids(rebuilt.present_ids(), ranks));
                SegSlot::fresh(rebuilt)
            };
            for &id in part.present_ids() {
                present[id as usize] = true;
            }
            seg_pins.push(self.seg_pins[i]);
            parts.push(part);
        }
        let (segments, dict, zones) = if present.iter().all(|&p| p) {
            (parts, self.dict.clone(), zones)
        } else {
            let (dict, mapping) = self.dict.compact(|id| present[id as usize]);
            let segments = parts.iter().map(|s| s.remap(&mapping)).collect();
            let zones = zones.into_iter().map(|z| z.remap(&mapping)).collect();
            (segments, dict, zones)
        };
        let (starts, rows) = starts_of(&segments);
        EncodedColumn {
            ty: self.ty,
            dict,
            segments,
            starts,
            zones,
            seg_pins,
            segment_rows: self.segment_rows,
            rows,
            pinned: self.pinned,
        }
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
    /// by reference with their encoding, zone, and pin.
    ///
    /// Merge groups splice payload and stats from the sources instead of
    /// recounting. A group whose segments share one encoding splices
    /// natively ([`Segment::splice`] / [`RleSegment::splice`]); a **mixed**
    /// group transcodes its minority parts to the encoding the chooser
    /// picks for the group's combined run/row/distinct stats, then splices.
    /// Only genuine splits re-derive stats through the assembler.
    pub fn compacted(&self) -> EncodedColumn {
        let sizes = self.segment_sizes();
        let Some(plan) = crate::segment::compaction_plan(&sizes, self.segment_rows) else {
            return self.clone();
        };
        let ranks = self.dict.value_order().ranks();
        let mut segments: Vec<SegSlot> = Vec::with_capacity(plan.len());
        let mut zones: Vec<Zone> = Vec::with_capacity(plan.len());
        let mut seg_pins: Vec<bool> = Vec::with_capacity(plan.len());
        for group in plan {
            if group.is_untouched(&sizes) {
                segments.push(self.segments[group.segs.start].clone());
                zones.push(self.zones[group.segs.start]);
                seg_pins.push(self.seg_pins[group.segs.start]);
                continue;
            }
            // A pin anywhere in the group pins its output: compaction must
            // not hand a user-pinned range back to the chooser. When the
            // group mixes encodings, the pinned encoding wins — the first
            // *pinned* part's, so an unpinned neighbor merged in cannot
            // flip data a user recoded explicitly.
            let group_pin = self.seg_pins[group.segs.clone()].iter().any(|&p| p);
            let pinned_target = self.segments[group.segs.clone()]
                .iter()
                .zip(&self.seg_pins[group.segs.clone()])
                .find(|(_, &pin)| pin)
                .map(|(seg, _)| seg.encoding())
                .or_else(|| {
                    self.pinned
                        .then(|| self.segments[group.segs.start].encoding())
                });
            if group.pieces.len() == 1 {
                let parts = &self.segments[group.segs.clone()];
                segments.push(splice_group(parts, pinned_target));
                zones.push(
                    self.zones[group.segs]
                        .iter()
                        .copied()
                        .reduce(|a, b| a.merge(b, ranks))
                        .expect("compaction group is non-empty"),
                );
                seg_pins.push(group_pin);
                continue;
            }
            let piece_count = group.pieces.len();
            let mut asm = EncodedAssembler::with_piece_sizes(group.pieces);
            for seg in &self.segments[group.segs] {
                asm.push_chunk(match seg.enc() {
                    SegmentEnc::Bitmap(s) => EncodedChunk::Bitmap(s.to_chunk()),
                    SegmentEnc::Rle(s) => EncodedChunk::Rle(s.seq().clone()),
                });
            }
            let pieces = asm.finish();
            debug_assert_eq!(pieces.len(), piece_count);
            zones.extend(pieces.iter().map(|s| Zone::of_ids(s.present_ids(), ranks)));
            seg_pins.extend(std::iter::repeat_n(group_pin, pieces.len()));
            segments.extend(pieces.into_iter().map(SegSlot::fresh));
        }
        let (starts, rows) = starts_of(&segments);
        EncodedColumn {
            ty: self.ty,
            dict: self.dict.clone(),
            segments,
            starts,
            zones,
            seg_pins,
            segment_rows: self.segment_rows,
            rows,
            pinned: self.pinned,
        }
    }

    /// [`EncodedColumn::compacted`] when fragmented, otherwise a cheap
    /// clone — the threshold-triggered form hooked in after UNION concat.
    pub fn maybe_compacted(&self) -> EncodedColumn {
        if self.needs_compaction() {
            self.compacted()
        } else {
            self.clone()
        }
    }

    // ---- sizes and invariants ----

    /// Compressed payload bytes (bitmaps and run sequences, excluding the
    /// dictionary), summed from segment stats.
    pub fn payload_bytes(&self) -> usize {
        self.segments.iter().map(|s| s.compressed_bytes()).sum()
    }

    /// Approximate total heap size (payload + dictionary).
    pub fn size_bytes(&self) -> usize {
        self.payload_bytes() + self.dict.size_bytes()
    }

    /// Faults every paged-out segment into memory — the eager-open path
    /// used by the v1 downgrade writer and fully-resident benchmarks.
    pub fn fault_in_all(&self) {
        for seg in &self.segments {
            let _ = seg.enc();
        }
    }

    /// `(resident, on-disk)` segment counts — buffer-cache telemetry.
    pub fn residency_counts(&self) -> (usize, usize) {
        let resident = self.segments.iter().filter(|s| s.is_resident()).count();
        (resident, self.segments.len() - resident)
    }

    /// Verifies the per-segment invariants, the directory geometry,
    /// dictionary compaction (every value occurs somewhere), zone
    /// consistency, and pin-vector geometry. Faults every payload in;
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
    /// geometry, dictionary compaction, and zone consistency, all checked
    /// against the resident per-segment stats — never faults a payload in.
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
        let mut present = vec![0u64; self.dict.len()];
        let mut expected_start = 0u64;
        for (i, (seg, &start)) in self.segments.iter().zip(&self.starts).enumerate() {
            if start != expected_start {
                return Err(StorageError::Corrupt(format!(
                    "segment {i} starts at {start}, expected {expected_start}"
                )));
            }
            if seg.rows() == 0 {
                return Err(StorageError::Corrupt(format!("segment {i} is empty")));
            }
            for (&id, &ones) in seg.present_ids().iter().zip(seg.ones()) {
                if id as usize >= self.dict.len() {
                    return Err(StorageError::Corrupt(format!(
                        "segment {i} references id {id} beyond dictionary"
                    )));
                }
                present[id as usize] += ones;
            }
            expected_start += seg.rows();
        }
        if expected_start != self.rows {
            return Err(StorageError::Corrupt(format!(
                "segments cover {expected_start} rows, column claims {}",
                self.rows
            )));
        }
        if self.rows > 0 {
            if let Some(id) = present.iter().position(|&n| n == 0) {
                return Err(StorageError::Corrupt(format!(
                    "value id {id} occurs in no segment (dictionary not compacted)"
                )));
            }
        }
        if self.zones.len() != self.segments.len() {
            return Err(StorageError::Corrupt(format!(
                "{} zones for {} segments",
                self.zones.len(),
                self.segments.len()
            )));
        }
        let ranks = self.dict.value_order().ranks();
        for (i, (seg, &zone)) in self.segments.iter().zip(&self.zones).enumerate() {
            if Zone::of_ids(seg.present_ids(), ranks) != zone {
                return Err(StorageError::Corrupt(format!(
                    "segment {i} zone (min id {}, max id {}) does not match its present ids",
                    zone.min_id, zone.max_id
                )));
            }
        }
        Ok(())
    }

    /// Decoding helper: installs per-segment pins read from disk (must be
    /// parallel to the directory).
    pub(crate) fn set_segment_pins(&mut self, pins: Vec<bool>) {
        debug_assert_eq!(pins.len(), self.segments.len());
        for (slot, &pin) in self.segments.iter().zip(&pins) {
            if pin {
                slot.set_pinned(true);
            }
        }
        self.seg_pins = pins;
    }

    /// The raw segment-range pin bit of segment `idx`, without the
    /// column-level pin folded in (the persist writer stores the two
    /// independently).
    pub(crate) fn segment_pin_raw(&self, idx: usize) -> bool {
        self.seg_pins[idx]
    }
}

/// Splices a compaction merge group into one segment. A uniform group
/// splices natively, combining cached stats; a mixed group transcodes each
/// part to the encoding the chooser picks for the combined statistics —
/// unless the range carries a pin, in which case `pinned_target` (the
/// first pinned part's encoding) wins: the chooser must not reshape data
/// a user recoded explicitly.
fn splice_group(parts: &[SegSlot], pinned_target: Option<Encoding>) -> SegSlot {
    debug_assert!(!parts.is_empty());
    let uniform = parts
        .iter()
        .all(|s| s.encoding() == parts[0].encoding())
        .then(|| parts[0].encoding());
    let target = match (uniform, pinned_target) {
        (Some(e), _) => e,
        (None, Some(e)) => e,
        (None, None) => {
            // The pick comes from resident metadata alone; only the splice
            // itself below faults the group's payloads in.
            let runs: u64 = parts.iter().map(|s| s.run_count()).sum();
            let rows: u64 = parts.iter().map(|s| s.rows()).sum();
            let mut distinct: Vec<u32> = parts
                .iter()
                .flat_map(|s| s.present_ids().iter().copied())
                .collect();
            distinct.sort_unstable();
            distinct.dedup();
            choose_encoding_from_stats(runs, rows, distinct.len() as u64, 1)
        }
    };
    let seg = match target {
        Encoding::Bitmap => {
            let converted: Vec<Arc<Segment>> = parts
                .iter()
                .map(|s| match s.enc() {
                    SegmentEnc::Bitmap(b) => b,
                    SegmentEnc::Rle(r) => Arc::new(r.to_bitmap_segment()),
                })
                .collect();
            let refs: Vec<&Segment> = converted.iter().map(|s| s.as_ref()).collect();
            SegmentEnc::Bitmap(Arc::new(Segment::splice(&refs)))
        }
        Encoding::Rle => {
            let converted: Vec<Arc<RleSegment>> = parts
                .iter()
                .map(|s| match s.enc() {
                    SegmentEnc::Rle(r) => r,
                    SegmentEnc::Bitmap(b) => Arc::new(RleSegment::from_bitmap_segment(&b)),
                })
                .collect();
            let refs: Vec<&RleSegment> = converted.iter().map(|s| s.as_ref()).collect();
            SegmentEnc::Rle(Arc::new(RleSegment::splice(&refs)))
        }
    };
    SegSlot::fresh(seg)
}

/// Incremental column builder: interns values and grows one
/// [`OneStreamBuilder`] per distinct value of the *current segment*,
/// sealing a bitmap segment every `segment_rows` rows (the ingest path;
/// the chooser re-encodes later where the stats say so).
#[derive(Debug)]
pub struct ColumnBuilder {
    ty: ValueType,
    dict: Dictionary,
    segment_rows: u64,
    /// Per-global-id builders for the current segment (sparse via `active`).
    builders: Vec<OneStreamBuilder>,
    /// Ids with at least one row in the current segment.
    active: Vec<u32>,
    cur_rows: u64,
    segments: Vec<SegmentEnc>,
    rows: u64,
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
            builders: Vec::new(),
            active: Vec::new(),
            cur_rows: 0,
            segments: Vec::new(),
            rows: 0,
        }
    }

    /// Appends one value as the next row.
    pub fn push(&mut self, v: Value) -> Result<(), StorageError> {
        if !v.conforms_to(self.ty) {
            return Err(StorageError::RowMismatch(format!(
                "value {v} does not conform to column type {}",
                self.ty
            )));
        }
        let id = self.dict.intern(v) as usize;
        if id >= self.builders.len() {
            self.builders.resize_with(id + 1, OneStreamBuilder::new);
        }
        if self.builders[id].ones() == 0 {
            self.active.push(id as u32);
        }
        self.builders[id].push_one(self.cur_rows);
        self.cur_rows += 1;
        self.rows += 1;
        if self.cur_rows == self.segment_rows {
            self.seal_segment();
        }
        Ok(())
    }

    fn seal_segment(&mut self) {
        if self.cur_rows == 0 {
            return;
        }
        let rows = self.cur_rows;
        let pairs: Vec<(u32, Wah)> = self
            .active
            .drain(..)
            .map(|id| {
                let b = std::mem::replace(&mut self.builders[id as usize], OneStreamBuilder::new());
                (id, b.finish(rows))
            })
            .collect();
        self.segments
            .push(SegmentEnc::Bitmap(Arc::new(Segment::new(rows, pairs))));
        self.cur_rows = 0;
    }

    /// Rows appended so far.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Finalizes the column. Zones are derived once here from the sealed
    /// segments' present-id stats (the dictionary's value order is built a
    /// single time, not per segment).
    pub fn finish(mut self) -> EncodedColumn {
        self.seal_segment();
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
            out = out.recode_segments(i..i + 1, Encoding::Rle).unwrap();
        }
        out
    }

    #[test]
    fn ids_range_matches_value_ids_on_mixed_directories() {
        let values: Vec<Value> = (0..500).map(|i| Value::int(i / 7 % 11)).collect();
        let col = mixed(&values, 64);
        assert!(col.encoding_counts().0 > 0 && col.encoding_counts().1 > 0);
        let full = col.value_ids();
        // Aligned, partial, cross-segment, empty, and total ranges.
        for range in [
            0..64,
            64..128,
            10..20,
            60..70,
            100..317,
            0..0,
            499..500,
            0..500,
        ] {
            assert_eq!(
                col.ids_range(range.clone()),
                full[range.start as usize..range.end as usize],
                "{range:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn ids_range_rejects_out_of_bounds() {
        let (bitmap, _) = both(&vals(10));
        bitmap.ids_range(5..11);
    }

    #[test]
    fn runs_range_coalesces_and_matches_ids_range() {
        // Clustered values so runs span segment boundaries.
        let values: Vec<Value> = (0..500).map(|i| Value::int(i / 90)).collect();
        let col = mixed(&values, 64);
        assert!(col.encoding_counts().0 > 0 && col.encoding_counts().1 > 0);
        for range in [0..64, 64..128, 10..20, 60..70, 100..317, 0..0, 0..500] {
            let runs = col.runs_range(range.clone());
            // Maximal: no two adjacent runs share an id.
            for pair in runs.windows(2) {
                assert_ne!(pair[0].0, pair[1].0, "{range:?} not coalesced");
            }
            let expanded: Vec<u32> = runs
                .iter()
                .flat_map(|&(id, n)| std::iter::repeat_n(id, n as usize))
                .collect();
            assert_eq!(expanded, col.ids_range(range.clone()), "{range:?}");
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
        assert_eq!(c.value_at(0), &Value::str("typing"));
        assert_eq!(c.uniform_encoding(), Some(Encoding::Bitmap));
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
        assert_eq!(c.segments()[0].rows(), 100);
        assert_eq!(c.segments()[10].rows(), 50);
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
        assert_eq!(c.segments()[0].present_ids(), &[0]);
        assert_eq!(c.segments()[1].present_ids(), &[1]);
        assert_eq!(c.value_count(0), 100);
        assert!(!c.segments()[1].contains_id(0));
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
            assert_eq!(col.bitmap_of(&Value::int(0)).unwrap(), bm);
            assert!(col.bitmap_of(&Value::int(99)).is_none());
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
        let f = c.filter_positions(&[0, 3, 4]);
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
    fn from_ids_and_from_parts() {
        let vals = vals(40);
        let by_values = EncodedColumn::from_values(ValueType::Int, &vals).unwrap();
        let ids = by_values.value_ids();
        let by_ids = EncodedColumn::from_ids(ValueType::Int, by_values.dict().clone(), &ids);
        assert_eq!(by_ids, by_values);
        let dict = Dictionary::from_values(vec![Value::int(1)]).unwrap();
        assert!(EncodedColumn::from_parts(ValueType::Int, dict, vec![], 0).is_err());
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
        assert_eq!(c.segments()[0].encoding(), Encoding::Bitmap);
        assert!(c.segments()[5].ptr_eq(&b.segments()[0]));
        assert_eq!(c.segments()[5].encoding(), Encoding::Rle);
        assert_eq!(c.encoding_counts(), (5, 5));
        assert_eq!(c.uniform_encoding(), None);
        let mut expect = vals.clone();
        expect.extend(vals);
        assert_eq!(c.values(), expect);
    }

    #[test]
    fn slice_shares_interior_segments() {
        let vals: Vec<Value> = (0..1_000).map(|i| Value::int(i % 4)).collect();
        let c = mixed(&vals, 100);
        let s = c.slice(50, 950);
        s.check_invariants().unwrap();
        assert_eq!(s.rows(), 900);
        // Interior segments carry over untouched, keeping their encoding
        // (output segment 1 is input segment 1, which `mixed` made RLE).
        assert_eq!(s.segments()[1].encoding(), c.segments()[1].encoding());
        assert_eq!(s.segments()[1].encoding(), Encoding::Rle);
        let expect: Vec<Value> = (50..950).map(|i| Value::int(i % 4)).collect();
        assert_eq!(s.values(), expect);
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
                b.filter_positions(&positions).values(),
                col.filter_positions(&positions).values()
            );
            assert_eq!(b.slice(100, 300).values(), col.slice(100, 300).values());
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
            assert_eq!(c.choose_segment_encoding(i), Encoding::Rle);
        }
        assert!(c.auto_recoded().unwrap().is_uniform(Encoding::Rle));

        // High-cardinality uniform: runs ≈ rows. Stays bitmap everywhere.
        let uniform: Vec<Value> = (0..20_000)
            .map(|i| Value::int((i * 2_654_435_761u64 as i64) % 5_000))
            .collect();
        let u = EncodedColumn::from_values_with(ValueType::Int, &uniform, 4096).unwrap();
        assert_eq!(u.choose_encoding(), Encoding::Bitmap);
        assert!(!u.needs_auto_recode());
        assert!(u
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
        let (bitmap_segs, rle_segs) = auto.encoding_counts();
        assert!(rle_segs >= 3, "clustered prefix should flip to RLE");
        assert!(bitmap_segs >= 3, "uniform suffix should stay bitmap");
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
        pinned.set_encoding_pinned(true);
        assert!(pinned.auto_recoded().unwrap().is_uniform(Encoding::Bitmap));
        // The pin survives recode, filter, concat, slice, and compaction.
        let r = pinned.recode(Encoding::Rle).unwrap();
        assert!(r.encoding_pinned());
        assert!(r.filter_positions(&[0, 5, 9]).encoding_pinned());
        assert!(r.concat(&r).unwrap().encoding_pinned());
        assert!(r.slice(10, 900).encoding_pinned());
        assert!(r.maybe_compacted().encoding_pinned());
        assert!(!c.encoding_pinned());
    }

    #[test]
    fn segment_range_recode_pins_those_segments() {
        let clustered: Vec<Value> = (0..4_000).map(|i| Value::int(i / 100)).collect();
        let c = EncodedColumn::from_values_with(ValueType::Int, &clustered, 500).unwrap();
        assert_eq!(c.segment_count(), 8);
        // Pin segments 2..5 to bitmap; the chooser may flip the rest.
        let ranged = c.recode_segments(2..5, Encoding::Bitmap).unwrap();
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
        let cleared = auto.auto_recode_segments(2..5).unwrap();
        for i in 0..8 {
            assert!(!cleared.segment_pinned(i));
            assert_eq!(cleared.segment_encoding(i), Encoding::Rle);
        }
        // Out-of-bounds ranges are rejected.
        assert!(c.recode_segments(7..9, Encoding::Rle).is_err());
        assert!(c.auto_recode_segments(9..9).is_err());
    }

    #[test]
    fn concat_keeps_pin_from_either_side() {
        let values = vals(200);
        let (b, r) = both(&values);
        let mut pinned = b.clone();
        pinned.set_encoding_pinned(true);
        assert!(b.concat(&pinned).unwrap().encoding_pinned());
        assert!(pinned.concat(&b).unwrap().encoding_pinned());
        assert!(r.concat(&pinned).unwrap().encoding_pinned());
        let mut pinned_rle = r.clone();
        pinned_rle.set_encoding_pinned(true);
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
            assert_eq!(dict.value(z0.min_id), &Value::int(10));
            assert_eq!(dict.value(z0.max_id), &Value::int(30));
            let z1 = col.zone(1);
            assert_eq!(dict.value(z1.min_id), &Value::int(20));
            assert_eq!(dict.value(z1.max_id), &Value::int(40));
        }
        // Concat splices zones without recomputation — across encodings.
        let cat = b.concat(&r).unwrap();
        assert_eq!(cat.zones().len(), 4);
        assert_eq!(cat.zone(2), b.zone(0));
        let s = b.slice(4, 6); // rows {20, 40} → one partial segment
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
        let mut acc = base.slice(0, 10);
        for i in 1..100 {
            acc = acc.concat(&base.slice(i * 10, i * 10 + 10)).unwrap();
        }
        assert_eq!(acc.rows(), 1_000);
        assert!(acc.needs_compaction());
        let compacted = acc.compacted();
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
        let pinned = base.recode_segments(1..2, Encoding::Rle).unwrap();
        // Fragment into tiny slices so compaction merges across the pinned
        // range, then compact.
        let mut acc = pinned.slice(0, 30);
        for i in 1..40 {
            acc = acc.concat(&pinned.slice(i * 30, (i + 1) * 30)).unwrap();
        }
        assert!(acc.needs_compaction());
        let compacted = acc.compacted();
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
    fn assembler_seals_pieces_in_their_encoding() {
        // All-RLE pieces seal as RLE; a bitmap piece anywhere seals the
        // segment as bitmap (RLE pieces transcoded).
        let mut seq1 = RleSeq::new();
        seq1.append_run(3, 4);
        let mut seq2 = RleSeq::new();
        seq2.append_run(1, 4);
        let mut asm = EncodedAssembler::new(4);
        asm.push_chunk(EncodedChunk::Rle(seq1));
        asm.push_chunk(EncodedChunk::Bitmap(SegmentChunk::from_ids(
            [0u32, 0, 1, 1],
            4,
            2,
        )));
        asm.push_chunk(EncodedChunk::Rle(seq2));
        let segs = asm.finish();
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[0].encoding(), Encoding::Rle);
        assert_eq!(segs[1].encoding(), Encoding::Bitmap);
        assert_eq!(segs[2].encoding(), Encoding::Rle);
        for s in &segs {
            s.check_invariants().unwrap();
            assert_eq!(s.rows(), 4);
        }
    }

    #[test]
    fn assembler_splits_and_pads_across_boundaries() {
        // A 6-row bitmap chunk and a 3-row RLE chunk over a 4-row target:
        // the middle segment mixes pieces and must seal as bitmap with
        // correct padding.
        let mut asm = EncodedAssembler::new(4);
        asm.push_chunk(EncodedChunk::Bitmap(SegmentChunk::from_ids(
            [0u32, 0, 1, 1, 0, 1],
            6,
            3,
        )));
        let mut seq = RleSeq::new();
        seq.append_run(2, 3);
        asm.push_chunk(EncodedChunk::Rle(seq));
        let segs = asm.finish();
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[0].rows(), 4);
        assert_eq!(segs[1].rows(), 4);
        assert_eq!(segs[2].rows(), 1);
        for s in &segs {
            s.check_invariants().unwrap();
        }
        assert_eq!(segs[0].present_ids(), &[0, 1]);
        // Second segment: rows 4..8 = [0, 1, 2, 2] — mixed pieces → bitmap.
        assert_eq!(segs[1].encoding(), Encoding::Bitmap);
        assert_eq!(segs[1].present_ids(), &[0, 1, 2]);
        assert_eq!(segs[1].count_for(2), 2);
        assert_eq!(segs[2].present_ids(), &[2]);
        assert_eq!(segs[2].encoding(), Encoding::Rle);
    }

    #[test]
    fn chunk_from_seq_follows_the_chooser() {
        let col = EncodedColumn::from_values_with(ValueType::Int, &vals(100), 64).unwrap();
        // Long runs → RLE chunk.
        let mut runs = RleSeq::new();
        runs.append_run(0, 50);
        runs.append_run(1, 50);
        assert!(matches!(
            EncodedChunk::from_seq_for(&col, runs),
            EncodedChunk::Rle(_)
        ));
        // Alternating ids (runs ≈ rows, distinct small but runs > 2·(d+1))
        // → bitmap chunk.
        let mut alt = RleSeq::new();
        for i in 0..100u32 {
            alt.push(i % 4);
        }
        assert!(matches!(
            EncodedChunk::from_seq_for(&col, alt),
            EncodedChunk::Bitmap(_)
        ));
        // A pinned uniform column forces its encoding on fresh chunks.
        let mut pinned = col.recode(Encoding::Rle).unwrap();
        pinned.set_encoding_pinned(true);
        let mut alt = RleSeq::new();
        for i in 0..100u32 {
            alt.push(i % 4);
        }
        assert!(matches!(
            EncodedChunk::from_seq_for(&pinned, alt),
            EncodedChunk::Rle(_)
        ));
    }

    #[test]
    fn gather_unsorted_on_mixed() {
        let values = vals(300);
        let b = EncodedColumn::from_values_with(ValueType::Int, &values, 64).unwrap();
        let m = mixed(&values, 64);
        let positions: Vec<u64> = (0..300).rev().step_by(7).collect();
        assert_eq!(b.gather(&positions).values(), m.gather(&positions).values());
    }
}
