//! Row-range segments: the unit of storage, parallelism, and pruning of a
//! segmented [`EncodedColumn`](crate::encoded::EncodedColumn).
//!
//! A column is a column-global dictionary plus a directory of segments,
//! each covering a consecutive row range (nominally
//! [`DEFAULT_SEGMENT_ROWS`] rows) in its own encoding. The bitmap
//! [`Segment`] defined here stores one WAH bitmap per value id *that occurs
//! in its range* — sparse, so a value concentrated in one part of the table
//! costs nothing elsewhere — all of them in one word arena. It is payload
//! only: the segment's statistics (rows, present ids, per-id ones, runs,
//! bytes), which scans use to prune entire segments without touching
//! bitmap words, live in its [`SegMeta`], counted once by the seal
//! ([`SealScratch`]) and recounted from the words ([`Segment::recount`])
//! whenever the payload is checked. Its RLE and bit-packed siblings live in
//! [`rle_segment`](crate::rle_segment) and [`packed`](crate::packed).
//!
//! Segments are immutable and `Arc`-shared: appending tables (UNION) and
//! row-range extraction reuse existing segments by reference instead of
//! rewriting bitmaps.

use crate::encoded::Encoding;
use crate::error::StorageError;
use crate::store::{Present, SegMeta};
use bytes::BufMut;
use cods_bitmap::{encode_runs, scan_body, words_of, Reader, Wah, WahRef};
use std::ops::Range;
use std::sync::Arc;

/// Default number of rows per segment (64 Ki).
pub const DEFAULT_SEGMENT_ROWS: u64 = 64 * 1024;

/// The zone map of one segment: the present value ids whose values are the
/// segment's minimum and maximum **in value order**. Ids (not ranks) are
/// stored because ids are stable under dictionary growth; range scans
/// resolve them to ranks through the dictionary's lazily built
/// [`ValueOrder`](crate::dictionary::ValueOrder) and skip segments whose
/// `[min, max]` value interval cannot intersect a predicate's satisfying
/// range — O(1) per segment instead of a walk over its present-id stats.
///
/// A zone is derived, never stored or spliced: a column computes all of
/// its zones on first use from its segments' present-id stats
/// ([`EncodedColumn::zones`](crate::encoded::EncodedColumn::zones)) —
/// never from bitmap words or runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Zone {
    /// Present id with the minimal value (by value order).
    pub min_id: u32,
    /// Present id with the maximal value (by value order).
    pub max_id: u32,
}

impl Zone {
    /// Derives the zone of a segment from its present ids and the
    /// dictionary's rank permutation (`None` for an identity order, where
    /// an id is its rank). O(present) integer comparisons, O(1) for a range
    /// under an identity order, whose zone is its first and last id; the
    /// payload (bitmaps/runs) is never touched.
    pub fn of_present(present: &Present, ranks: Option<&[u32]>) -> Zone {
        match (present.range(), ranks) {
            (Some(ids), None) => Zone {
                min_id: ids.start,
                max_id: ids.end - 1,
            },
            _ => Zone::extremes(present.ids(), ranks),
        }
    }

    /// [`Zone::of_present`] over a list of ids.
    pub fn of_ids(ids: &[u32], ranks: Option<&[u32]>) -> Zone {
        Zone::extremes(ids.iter().copied(), ranks)
    }

    /// The ids of least and greatest rank among `ids` (distinct ranks, so
    /// each is the one such id).
    fn extremes(ids: impl Iterator<Item = u32> + Clone, ranks: Option<&[u32]>) -> Zone {
        let rank = |id: &u32| ranks.map_or(*id, |r| r[*id as usize]);
        Zone {
            min_id: ids
                .clone()
                .min_by_key(rank)
                .expect("zone of an empty segment"),
            max_id: ids.max_by_key(rank).expect("zone of an empty segment"),
        }
    }
}

/// One group of consecutive input segments rewritten together by a
/// compaction pass, and the output piece sizes it is re-chunked into.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompactionGroup {
    /// Input segment indices covered by this group.
    pub segs: Range<usize>,
    /// Output piece sizes (their sum equals the group's row count). A group
    /// whose single piece equals its single input segment is untouched and
    /// reused by reference.
    pub pieces: Vec<u64>,
}

impl CompactionGroup {
    /// Returns `true` when the group passes one input segment through
    /// unchanged (the Arc-reuse case).
    pub fn is_untouched(&self, sizes: &[u64]) -> bool {
        self.segs.len() == 1 && self.pieces.len() == 1 && self.pieces[0] == sizes[self.segs.start]
    }
}

/// The shared threshold trigger for both encodings: a directory is
/// fragmented enough to compact when its segment count exceeds twice what
/// the nominal size calls for, or some segment is oversized (> 2·nominal).
/// Long `concat`/`slice` (UNION) chains are what drive it here.
pub fn needs_compaction(sizes: &[u64], nominal: u64) -> bool {
    let rows: u64 = sizes.iter().sum();
    if rows == 0 {
        return false;
    }
    let nominal_count = rows.div_ceil(nominal).max(1);
    sizes.len() as u64 > 2 * nominal_count || sizes.iter().any(|&s| s > 2 * nominal)
}

/// Computes the re-chunk schedule of a compaction pass from segment sizes
/// alone (shared by the bitmap and RLE encodings): adjacent undersized
/// segments (< ½·nominal) are merged toward the nominal size and oversized
/// ones (> 2·nominal) are split into balanced pieces, so every output
/// segment lands in `[½·nominal, 2·nominal]` (the whole column being
/// smaller than ½·nominal is the one unavoidable exception). Returns `None`
/// when the directory is already within bounds — the caller reuses every
/// segment by reference.
pub fn compaction_plan(sizes: &[u64], nominal: u64) -> Option<Vec<CompactionGroup>> {
    assert!(nominal > 0, "nominal segment size must be positive");
    let min = nominal / 2;
    let max = 2 * nominal;
    let mut groups: Vec<Range<usize>> = Vec::new();
    let mut start = 0usize;
    let mut cur_rows = 0u64;
    for (i, &s) in sizes.iter().enumerate() {
        cur_rows += s;
        if cur_rows >= min.max(1) {
            groups.push(start..i + 1);
            start = i + 1;
            cur_rows = 0;
        }
    }
    if start < sizes.len() {
        // Trailing rows below the minimum: fold them into the last group
        // (splitting below restores the upper bound if needed).
        match groups.last_mut() {
            Some(last) => last.end = sizes.len(),
            None => groups.push(start..sizes.len()),
        }
    }
    let mut plan = Vec::with_capacity(groups.len());
    let mut identity = true;
    for segs in groups {
        let rows: u64 = sizes[segs.clone()].iter().sum();
        let pieces = if rows <= max {
            vec![rows]
        } else {
            let k = rows.div_ceil(nominal);
            let base = rows / k;
            let extra = rows % k;
            (0..k).map(|i| base + u64::from(i < extra)).collect()
        };
        let group = CompactionGroup { segs, pieces };
        identity &= group.is_untouched(sizes);
        plan.push(group);
    }
    if identity {
        None
    } else {
        Some(plan)
    }
}

/// The reusable scratch of every seal
/// ([`SegmentEnc::seal`](crate::encoded::SegmentEnc::seal)): a table
/// indexed by value id, zero between calls. Each call
/// resets the slots it used by walking the ids it touched, so one scratch
/// serves any number of segments at the cost of the ids present, not of
/// the dictionary — keep one per worker (the operators pool them) for the
/// length of a write. It grows to the largest id it has seen.
#[derive(Debug, Default)]
pub struct SealScratch {
    /// Per id: its row count, then, for a bitmap payload, its span's end
    /// in `placed`, or for a packed one its code (zero outside a call).
    slot: Vec<u32>,
    /// The ids whose slots are in use.
    touched: Vec<u32>,
    /// The segment's rows grouped by id in ascending id order, each id's
    /// in row order (a bitmap payload's counting sort).
    placed: Vec<u32>,
    /// The arena under construction.
    words: Vec<u64>,
}

impl SealScratch {
    /// Zeroes the slots the last count used.
    pub(crate) fn reset(&mut self) {
        for &id in &self.touched {
            self.slot[id as usize] = 0;
        }
        self.touched.clear();
    }

    /// The one count under every seal: the stats of the segment whose row
    /// `r` holds `ids[r]`, with `bytes` left for the payload's writer and
    /// `encoding` (bitmap here) for the seal to set. One pass counts each
    /// id's rows in `slot`, listing each id in `touched` once, and the runs
    /// (a row whose id differs from the row before starts one); the touched
    /// ids are then sorted. [`SealScratch::reset`] clears the table.
    /// O(rows + present ids · log).
    ///
    /// # Panics
    /// Panics at `u32::MAX` rows.
    pub(crate) fn count(&mut self, ids: &[u32]) -> SegMeta {
        assert!(
            ids.len() < u32::MAX as usize,
            "segment exceeds u32::MAX rows"
        );
        let SealScratch { slot, touched, .. } = self;
        let mut runs = 0u64;
        let mut prev = None;
        for &id in ids {
            let i = id as usize;
            if i >= slot.len() {
                slot.resize(i + 1, 0);
            }
            if slot[i] == 0 {
                touched.push(id);
            }
            slot[i] += 1;
            if prev != Some(id) {
                runs += 1;
                prev = Some(id);
            }
        }
        touched.sort_unstable();
        let ones = touched.iter().map(|&id| u64::from(slot[id as usize]));
        SegMeta {
            rows: ids.len() as u64,
            present: Present::List {
                ids: touched.as_slice().into(),
                ones: ones.collect(),
            },
            runs,
            bytes: 0,
            encoding: Encoding::Bitmap,
        }
    }

    /// After a count: each of the `present` ids' codes, its position in
    /// them, in the id-indexed table the packed writer reads
    /// (`code[id]`).
    pub(crate) fn codes(&mut self, present: &[u32]) -> &[u32] {
        for (i, &id) in present.iter().enumerate() {
            self.slot[id as usize] = i as u32;
        }
        &self.slot
    }
}

/// One immutable row-range segment's payload: sparse per-value bitmaps
/// over the segment's rows. Its stats live in its [`SegMeta`].
///
/// The bitmaps are one allocation laid out as the payload stores them
/// (format 10): each present id's WAH words, its active word last, back to
/// back in id order, and a head table of each id's end in that arena.
/// [`Segment::bitmap`] / [`Segment::iter`] hand each out as a borrowed
/// [`WahRef`] — so a segment costs the same two allocations (words, ends)
/// however many values it holds, and a fault-in decodes its payload
/// straight into the arena (`Segment::decode`). A bitmap's length is the
/// segment's `rows` and its population the meta's `ones` entry, so neither
/// is stored again; the ids and ones the bitmaps are read with are the
/// meta's own slices, shared.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Segment {
    rows: u64,
    /// The meta's present ids.
    ids: Arc<[u32]>,
    /// The meta's per-id rows, each bitmap's population.
    ones: Arc<[u64]>,
    /// Every present id's words, active word last, back to back in id
    /// order.
    words: Box<[u64]>,
    /// Each present id's end in `words` (parallel to `ids`), ascending: id
    /// `i`'s words are `ends[i - 1]..ends[i]`, from 0 for the first.
    ends: Box<[u32]>,
}

/// An arena offset as stored in a head table.
///
/// # Panics
/// Panics past `u32::MAX` words — a single segment of billions of rows.
fn arena_u32(n: usize) -> u32 {
    u32::try_from(n).expect("segment arena exceeds u32::MAX words")
}

/// The cache charge ([`SegMeta::bytes`]) of an arena of `words` words,
/// active words included, over `ids` bitmaps: eight bytes for each word
/// before an active one and 24 per bitmap — what format 9 stored, a
/// 24-byte header per bitmap in place of the active word and head entry.
/// The charge outlived that layout so a faulted segment costs the budget
/// what it always did.
fn charge(words: usize, ids: usize) -> usize {
    8 * words + 16 * ids
}

/// Bytes of a head table entry.
const HEAD_BYTES: u64 = 4;

/// The typed error of a payload that is not the segment its metadata
/// describes.
pub(crate) fn corrupt(m: &str) -> StorageError {
    StorageError::PersistError(format!("segment payload: {m}"))
}

/// Reads the bitmap of present-id position `i` out of a bitmap payload of
/// `len` bytes without reading the rest of it: the head entries around `i`
/// (eight bytes, four for the first), then its words. `read(offset, n)`
/// returns the `n` payload bytes at `offset`. Every offset is checked
/// against `len` before anything is read, so nothing is sized past the
/// payload, and the bitmap is checked on its own: canonical words, `rows`
/// long, holding the `ones` the meta gives it.
///
/// # Panics
/// Panics if `i` is past the present ids.
pub(crate) fn read_bitmap(
    meta: &SegMeta,
    i: usize,
    len: u64,
    read: &mut impl FnMut(u64, u64) -> Result<Vec<u8>, StorageError>,
) -> Result<Wah, StorageError> {
    let head = HEAD_BYTES * meta.distinct_count() as u64;
    if head > len {
        return Err(corrupt("head table past the payload"));
    }
    let at = HEAD_BYTES * i.saturating_sub(1) as u64;
    let entries = read(at, HEAD_BYTES * (1 + u64::from(i > 0)))?;
    let entry =
        |k: usize| u32::from_le_bytes(entries[4 * k..4 * k + 4].try_into().expect("four bytes"));
    let (lo, hi) = match i {
        0 => (0, entry(0)),
        _ => (entry(0), entry(1)),
    };
    if hi <= lo {
        return Err(corrupt("head entries do not increase"));
    }
    let (lo, hi) = (u64::from(lo) * 8, u64::from(hi) * 8);
    if hi > len - head {
        return Err(corrupt("head entry past the words region"));
    }
    let raw = read(head + lo, hi - lo)?;
    let bm = Wah::decode_body(&raw, meta.rows).map_err(|e| corrupt(&e.to_string()))?;
    if bm.count_ones() != meta.present.ones(i) {
        return Err(corrupt("recounted ones do not match the metadata"));
    }
    Ok(bm)
}

impl Segment {
    /// Writes the bitmap segment whose row `r` holds `ids[r]` from the count
    /// `scratch` just took of it ([`SealScratch::count`], which gave
    /// `meta`): a counting sort places each id's rows in `placed`, and each
    /// present id's rows are encoded in id order straight into the arena,
    /// its words then its active word ([`encode_runs`], each row a one-row
    /// run: the encoder gathers a group's bits into one literal and merges
    /// whole groups into fills itself, so coalescing rows first only costs
    /// scattered data a second pass). Sets `meta.bytes`; the segment shares
    /// `meta`'s ids and ones. WAH is canonical, so the same rows give the
    /// same bytes whatever wrote them. O(rows + words).
    pub(crate) fn from_ids(ids: &[u32], meta: &mut SegMeta, scratch: &mut SealScratch) -> Segment {
        let rows = ids.len() as u64;
        let SealScratch {
            slot,
            placed,
            words,
            ..
        } = scratch;
        let (present, ones) = meta.present.list();
        let (present, ones) = (Arc::clone(present), Arc::clone(ones));
        // Each id's slot becomes the start of its span of `placed`, then,
        // as its rows are placed, the span's end.
        let mut at = 0u32;
        for &id in present.iter() {
            let n = slot[id as usize];
            slot[id as usize] = at;
            at += n;
        }
        placed.clear();
        placed.resize(ids.len(), 0);
        for (row, &id) in (0u32..).zip(ids) {
            let s = &mut slot[id as usize];
            placed[*s as usize] = row;
            *s += 1;
        }
        words.clear();
        let mut ends = Vec::with_capacity(present.len());
        let mut lo = 0usize;
        for &id in present.iter() {
            let hi = slot[id as usize] as usize;
            let runs = placed[lo..hi].iter().map(|&row| (u64::from(row), 1));
            let active = encode_runs(runs, rows, words);
            words.push(active);
            ends.push(arena_u32(words.len()));
            lo = hi;
        }
        meta.bytes = charge(words.len(), ends.len());
        Segment {
            rows,
            ids: present,
            ones,
            words: words.as_slice().into(),
            ends: ends.into_boxed_slice(),
        }
    }

    /// Decodes a bitmap payload — a head table of one `end:u32` per present
    /// id of `meta`, then every id's words, active word last, in id order —
    /// straight into the arena. The ends must rise strictly and the last
    /// must close the words region exactly; the words are copied in one
    /// pass, then each bitmap's are validated and counted ([`scan_body`])
    /// and it must be exactly `rows` long. Returns the segment, which
    /// shares `meta`'s id and ones slices, and what the bitmaps count to
    /// (ones, runs and bytes), which the caller holds to `meta`
    /// ([`SegMeta::check_payload`]).
    pub(crate) fn decode(meta: &SegMeta, raw: &[u8]) -> Result<(Segment, SegMeta), StorageError> {
        let (ids, meta_ones) = meta.present.list();
        let n = ids.len();
        let mut r = Reader::new(raw);
        let head = r
            .take(HEAD_BYTES as usize * n)
            .map_err(|_| corrupt("head table past the payload"))?;
        let body = r.take(r.remaining()).expect("the rest of the payload");
        // The arena is the words region, converted in one pass, so it is
        // sized from the bytes read and never grows.
        let words = words_of(body).map_err(|e| corrupt(&e.to_string()))?;
        let total = words.len();
        let mut ends = Vec::with_capacity(n);
        // The bitmaps' ones, kept only from the first that differs from the
        // meta's: while every bitmap agrees, the recount is the meta's slice.
        let mut ones: Option<Vec<u64>> = None;
        let mut runs = 0u64;
        let mut lo = 0usize;
        for (i, entry) in head.chunks_exact(4).enumerate() {
            let end = u32::from_le_bytes(entry.try_into().expect("four bytes"));
            let hi = end as usize;
            if hi <= lo {
                return Err(corrupt("head entries do not increase"));
            }
            if hi > total {
                return Err(corrupt("head entry past the words region"));
            }
            let d = scan_body(&words[lo..hi], meta.rows).map_err(|e| corrupt(&e.to_string()))?;
            match &mut ones {
                Some(v) => v.push(d.ones),
                None if meta_ones.get(i) != Some(&d.ones) => {
                    let mut v = meta_ones[..i.min(meta_ones.len())].to_vec();
                    v.push(d.ones);
                    ones = Some(v);
                }
                None => {}
            }
            runs += d.intervals;
            ends.push(end);
            lo = hi;
        }
        if lo != total {
            return Err(corrupt("trailing bytes after payload"));
        }
        let found = SegMeta {
            present: Present::List {
                ids: Arc::clone(ids),
                ones: match ones {
                    Some(v) => v.into(),
                    None if meta_ones.len() > n => meta_ones[..n].into(),
                    None => Arc::clone(meta_ones),
                },
            },
            runs,
            bytes: charge(words.len(), n),
            ..meta.clone()
        };
        let seg = Segment {
            rows: meta.rows,
            ids: Arc::clone(ids),
            ones: Arc::clone(meta_ones),
            words: words.into_boxed_slice(),
            ends: ends.into_boxed_slice(),
        };
        Ok((seg, found))
    }

    /// Writes the payload [`Segment::decode`] reads: the head table, then
    /// the arena.
    pub(crate) fn encode<B: BufMut>(&self, buf: &mut B) {
        for &end in self.ends.iter() {
            buf.put_u32_le(end);
        }
        for &w in self.words.iter() {
            buf.put_u64_le(w);
        }
    }

    /// The length of [`Segment::encode`]'s output.
    pub(crate) fn encoded_len(&self) -> usize {
        HEAD_BYTES as usize * self.ends.len() + 8 * self.words.len()
    }

    /// The arena span of the `i`-th present id.
    #[inline]
    fn span(&self, i: usize) -> Range<usize> {
        let lo = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        lo..self.ends[i] as usize
    }

    /// The bitmap of the `i`-th present id (parallel to the meta's
    /// `present_ids`).
    ///
    /// # Panics
    /// Panics if `i` is past the present ids.
    #[inline]
    pub fn bitmap(&self, i: usize) -> WahRef<'_> {
        WahRef::from_body(&self.words[self.span(i)], self.rows, self.ones[i])
    }

    /// Every present id with its bitmap, in id order. The ends cut the
    /// arena front to back, so the walk just splits it as it goes.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (u32, WahRef<'_>)> + '_ {
        let mut rest: &[u64] = &self.words;
        let mut at = 0u32;
        let rows = self.rows;
        self.ids
            .iter()
            .zip(self.ends.iter().zip(self.ones.iter()))
            .map(move |(&id, (&end, &ones))| {
                let (body, tail) = rest.split_at((end - at) as usize);
                rest = tail;
                at = end;
                (id, WahRef::from_body(body, rows, ones))
            })
    }

    /// The value id at segment-local `row` (O(present) bitmap probes).
    pub fn id_at(&self, row: u64) -> Option<u32> {
        debug_assert!(row < self.rows);
        self.iter().find(|(_, bm)| bm.get(row)).map(|(id, _)| id)
    }

    /// Writes the value id of each of the segment's first `out.len()` rows
    /// into `out` (segment-local coordinates), one
    /// [`WahRef::scatter_prefix`] per present id, which stops at the
    /// window's end, then checks every row of the window got one. `out`
    /// holds at most one slot per row, each `u32::MAX` on entry. Bitmaps
    /// that overlap pass every per-bitmap check of the payload decoder and
    /// still leave some row unset: that is corrupt data, so a row of the
    /// window left unset is a typed error here rather than a sentinel id
    /// for the next dictionary lookup to panic on. Every reader of a
    /// segment's ids goes through this.
    pub(crate) fn fill_covering(&self, out: &mut [u32]) -> Result<(), StorageError> {
        debug_assert!(out.len() as u64 <= self.rows, "at most one slot per row");
        debug_assert_eq!(
            self.ones.iter().sum::<u64>(),
            self.rows,
            "bitmap ones do not sum to the row count"
        );
        for (id, bm) in self.iter() {
            bm.scatter_prefix(out, id);
        }
        if out.contains(&u32::MAX) {
            return Err(StorageError::Corrupt(format!(
                "a bitmap segment of {} rows: its bitmaps leave a row uncovered",
                self.rows
            )));
        }
        Ok(())
    }

    /// The segment under `meta`, the stats of an id translation of it:
    /// the bitmaps of present-id positions `from`, in that order, copied
    /// into a new arena (dictionary merges and compaction).
    pub(crate) fn remap(&self, meta: &SegMeta, from: &[usize]) -> Segment {
        let mut words = Vec::with_capacity(self.words.len());
        let mut ends = Vec::with_capacity(from.len());
        for &i in from {
            words.extend_from_slice(&self.words[self.span(i)]);
            ends.push(arena_u32(words.len()));
        }
        let (ids, ones) = meta.present.list();
        Segment {
            rows: self.rows,
            ids: Arc::clone(ids),
            ones: Arc::clone(ones),
            words: words.into_boxed_slice(),
            ends: ends.into_boxed_slice(),
        }
    }

    /// Recounts the stats from the bitmaps, after checking the arena: its
    /// ends rise strictly and close it exactly, every bitmap is canonical,
    /// `rows` long and holds the ones it is read with, and — on segments of
    /// at most 10,000 rows, via an OR-fold — no two bitmaps overlap. The
    /// bitmap side of the one payload check ([`SegMeta::check_payload`]).
    pub fn recount(&self) -> Result<SegMeta, String> {
        if self.ids.len() != self.ends.len() || self.ids.len() != self.ones.len() {
            return Err("ids/ends/ones length mismatch".into());
        }
        let mut at = 0u32;
        for &end in self.ends.iter() {
            if end <= at {
                return Err("bitmap ends do not rise through the word arena".into());
            }
            at = end;
        }
        if at as usize != self.words.len() {
            return Err("word arena holds words no bitmap owns".into());
        }
        let mut runs = 0u64;
        for (id, bm) in self.iter() {
            bm.check_invariants()
                .map_err(|e| format!("bitmap of id {id}: {e}"))?;
            runs += bm.count_intervals();
        }
        // Ones totalling rows (the meta's check) plus full coverage implies
        // disjointness; verify coverage on small segments.
        if self.rows > 0 && self.rows <= 10_000 {
            let union = WahRef::union_many(self.iter().map(|(_, bm)| bm), self.rows);
            if union.count_ones() != self.rows {
                return Err("partition invariant violated: overlapping bitmaps".into());
            }
        }
        Ok(SegMeta {
            rows: self.rows,
            present: Present::List {
                ids: Arc::clone(&self.ids),
                ones: Arc::clone(&self.ones),
            },
            runs,
            bytes: charge(self.words.len(), self.ends.len()),
            encoding: Encoding::Bitmap,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoded::SegmentEnc;
    use crate::store::SegSlot;

    /// The bitmap segment whose row `r` holds `ids[r]`.
    fn sealed(ids: &[u32]) -> SegSlot {
        SegmentEnc::seal(ids, Encoding::Bitmap, &mut SealScratch::default())
    }

    fn bitmap(slot: &SegSlot) -> Arc<Segment> {
        match slot.enc() {
            SegmentEnc::Bitmap(s) => s,
            _ => panic!("a bitmap segment"),
        }
    }

    #[test]
    fn segment_stats_and_lookup() {
        let s = sealed(&[7, 2, 2, 7, 2, 7]);
        s.check_invariants().unwrap();
        let m = s.meta();
        assert_eq!(m.present.ids().collect::<Vec<_>>(), [2, 7]);
        assert_eq!(m.count_for(7), 3);
        assert_eq!(m.count_for(9), 0);
        assert!(m.contains_id(2));
        assert!(!m.contains_id(3));
        assert_eq!(bitmap(&s).id_at(0), Some(7));
        assert_eq!(bitmap(&s).id_at(1), Some(2));
    }

    #[test]
    fn zone_of_ids() {
        // ranks: id 0 → rank 2, id 1 → rank 0, id 2 → rank 1.
        let ranks = [2u32, 0, 1];
        let z = Zone::of_ids(&[0, 2], Some(&ranks));
        assert_eq!(
            z,
            Zone {
                min_id: 2,
                max_id: 0
            }
        );
        // An identity order: the extreme ids are the extreme values.
        assert_eq!(
            Zone::of_ids(&[3, 1, 2], None),
            Zone {
                min_id: 1,
                max_id: 3
            }
        );
        assert_eq!(
            Zone::of_ids(&[1], Some(&ranks)),
            Zone {
                min_id: 1,
                max_id: 1
            }
        );
    }

    #[test]
    fn from_ids_seals_each_id_in_one_pass() {
        // Rows 1 1 3 3 3 8 8: id 3's rows cross where two pieces met.
        let ids = [1u32, 1, 3, 3, 3, 8, 8];
        let mut scratch = SealScratch::default();
        for _ in 0..2 {
            let slot = SegmentEnc::seal(&ids, Encoding::Bitmap, &mut scratch);
            slot.check_invariants().unwrap();
            let (m, s) = (slot.meta(), bitmap(&slot));
            assert_eq!(m.rows, 7);
            assert_eq!(m.present.ids().collect::<Vec<_>>(), [1, 3, 8]);
            assert_eq!(
                m.present.iter().map(|(_, n)| n).collect::<Vec<_>>(),
                [2, 3, 2]
            );
            assert_eq!(m.runs, 3);
            assert_eq!(s.bitmap(1).to_positions(), vec![2, 3, 4]);
            assert_eq!(s.bitmap(2).to_positions(), vec![5, 6]);
        }
        // An id seen by an earlier seal is gone from the next one.
        let slot = SegmentEnc::seal(&[8, 2, 8], Encoding::Bitmap, &mut scratch);
        assert_eq!(slot.meta().present.ids().collect::<Vec<_>>(), [2, 8]);
        assert_eq!(bitmap(&slot).bitmap(1).to_positions(), vec![0, 2]);
        assert_eq!(slot.meta().runs, 3);
    }

    mod both_writers {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            // Each id's words are those `Wah::from_sorted_positions` writes
            // for its rows, whatever the runs: short, long, one group
            // exactly, or whole groups.
            #[test]
            fn sealed_ids_write_each_bitmap_from_its_positions(
                runs in prop::collection::vec(
                    (
                        0u32..12,
                        prop_oneof![
                            1u64..5,
                            1u64..200,
                            Just(63u64),
                            (1u64..40).prop_map(|groups| groups * 63),
                        ],
                    ),
                    1..60,
                ),
            ) {
                let ids: Vec<u32> = runs
                    .iter()
                    .flat_map(|&(id, n)| std::iter::repeat_n(id, n as usize))
                    .collect();
                let rows = ids.len() as u64;
                let mut scratch = SealScratch::default();
                let slot = SegmentEnc::seal(&ids, Encoding::Bitmap, &mut scratch);
                let s = bitmap(&slot);
                let (mut words, mut ends) = (Vec::new(), Vec::new());
                for id in slot.meta().present.ids() {
                    let at = (0..rows).filter(|&r| ids[r as usize] == id);
                    let wah = Wah::from_sorted_positions(at, rows);
                    words.extend_from_slice(wah.words());
                    words.push(wah.view().active());
                    ends.push(words.len() as u32);
                }
                prop_assert_eq!(&s.words[..], &words[..]);
                prop_assert_eq!(&s.ends[..], &ends[..]);
                prop_assert_eq!(slot.meta().bytes, charge(words.len(), ends.len()));
                prop_assert_eq!(s.recount().unwrap(), slot.meta().clone());
            }
        }
    }

    #[test]
    fn run_count_counts_value_runs() {
        // Rows: 7 7 2 2 7 → runs [7, 2, 7] = 3.
        let s = sealed(&[7, 7, 2, 2, 7]);
        assert_eq!(s.meta().runs, 3);
        assert_eq!(bitmap(&s).recount().unwrap().runs, 3);
    }

    #[test]
    fn remap_translates_and_resorts() {
        let s = sealed(&[0, 1, 1]);
        let r = s.remap(&[Some(4), Some(1)]).unwrap();
        r.check_invariants().unwrap();
        assert_eq!(r.meta().present.ids().collect::<Vec<_>>(), [1, 4]);
        assert_eq!(r.meta().count_for(1), 2);
        assert_eq!(r.meta().count_for(4), 1);
        assert_eq!(bitmap(&r).bitmap(1).to_positions(), vec![0]);
    }
}
