//! Row-range segments: the unit of storage, parallelism, and pruning of a
//! segmented [`EncodedColumn`](crate::encoded::EncodedColumn).
//!
//! A column is a column-global dictionary plus a directory of segments,
//! each covering a consecutive row range (nominally
//! [`DEFAULT_SEGMENT_ROWS`] rows) in its own encoding. The bitmap
//! [`Segment`] defined here stores one WAH bitmap per value id *that occurs
//! in its range* — sparse, so a value concentrated in one part of the table
//! costs nothing elsewhere — all of them in one word arena, along with
//! per-segment statistics (row count, present ids, per-id ones, compressed
//! size) that scans use to prune entire segments without touching bitmap
//! words. Its RLE twin lives in
//! [`rle_segment`](crate::rle_segment).
//!
//! Segments are immutable and `Arc`-shared: appending tables (UNION) and
//! row-range extraction reuse existing segments by reference instead of
//! rewriting bitmaps.

use crate::error::StorageError;
use crate::store::SegMeta;
use cods_bitmap::{decode_words, Reader, RleSeq, Wah, WahRef};
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
/// Zones are maintained *incrementally*: splicing directories (UNION
/// concat, compaction merges) folds source zones instead of rescanning
/// payload, and fresh segments derive their zone from present-id stats —
/// never from bitmap words or runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Zone {
    /// Present id with the minimal value (by value order).
    pub min_id: u32,
    /// Present id with the maximal value (by value order).
    pub max_id: u32,
}

impl Zone {
    /// Derives the zone of a segment from its present-id stats and the
    /// dictionary's rank permutation. O(present) integer comparisons; the
    /// payload (bitmaps/runs) is never touched.
    pub fn of_ids(ids: &[u32], ranks: &[u32]) -> Zone {
        debug_assert!(!ids.is_empty(), "zone of an empty segment");
        let mut min = ids[0];
        let mut max = ids[0];
        for &id in &ids[1..] {
            if ranks[id as usize] < ranks[min as usize] {
                min = id;
            }
            if ranks[id as usize] > ranks[max as usize] {
                max = id;
            }
        }
        Zone {
            min_id: min,
            max_id: max,
        }
    }

    /// Folds two zones into the zone of their spliced segment (O(1)).
    pub fn merge(self, other: Zone, ranks: &[u32]) -> Zone {
        Zone {
            min_id: if ranks[other.min_id as usize] < ranks[self.min_id as usize] {
                other.min_id
            } else {
                self.min_id
            },
            max_id: if ranks[other.max_id as usize] > ranks[self.max_id as usize] {
                other.max_id
            } else {
                self.max_id
            },
        }
    }

    /// Translates the zone through an id mapping (dictionary merge or
    /// compaction). Values are preserved by such mappings, so the
    /// translated ids still name the segment's extreme values.
    ///
    /// # Panics
    /// Panics if either extreme id was dropped by the mapping (it cannot
    /// be: zone ids are present in the segment).
    pub fn remap(self, map: &[Option<u32>]) -> Zone {
        Zone {
            min_id: map[self.min_id as usize].expect("zone min id dropped by remap"),
            max_id: map[self.max_id as usize].expect("zone max id dropped by remap"),
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

/// The reusable scratch of [`Segment::from_runs`] and of the distinct-id
/// count a stream-driven write takes before it picks an encoding: a table
/// indexed by value id, zero between calls. Each call resets the slots it
/// used by walking the ids it touched, so one scratch serves any number of
/// segments at the cost of the ids present, not of the dictionary — keep
/// one per worker (the operators pool them) for the length of a write. It
/// grows to the largest id it has seen.
#[derive(Debug, Default)]
pub struct SealScratch {
    /// Per id: its run count, then its span of `placed` (zero outside a
    /// call).
    slot: Vec<u32>,
    /// The ids whose slot is in use.
    touched: Vec<u32>,
    /// The runs' `(start, len)`, grouped by id in ascending id order.
    placed: Vec<(u64, u64)>,
    /// The one bitmap every present id is encoded into in turn.
    wah: Wah,
    /// The arena under construction.
    words: Vec<u64>,
}

impl SealScratch {
    /// Counts the runs of each id of `seq` into `slot`, listing each id in
    /// `touched` once.
    fn count(&mut self, seq: &RleSeq) {
        for &(id, _) in seq.runs() {
            let i = id as usize;
            if i >= self.slot.len() {
                self.slot.resize(i + 1, 0);
            }
            if self.slot[i] == 0 {
                self.touched.push(id);
            }
            self.slot[i] += 1;
        }
    }

    fn reset(&mut self) {
        for &id in &self.touched {
            self.slot[id as usize] = 0;
        }
        self.touched.clear();
    }

    /// The number of distinct ids in `seq`. O(runs).
    pub fn distinct(&mut self, seq: &RleSeq) -> u64 {
        self.count(seq);
        let n = self.touched.len() as u64;
        self.reset();
        n
    }
}

/// Where one present id's bitmap lives in its segment's word arena, and its
/// active tail. Its length is the segment's `rows` and its population the
/// parallel `ones` entry, so neither is stored again here.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Head {
    off: u32,
    nwords: u32,
    active: u64,
    active_bits: u32,
}

/// One immutable row-range segment: sparse per-value bitmaps over the
/// segment's rows, plus cached statistics.
///
/// The bitmaps are one allocation: their WAH words lie back to back, in id
/// order, in an arena sized exactly, and [`Segment::bitmap`] /
/// [`Segment::iter`] hand each out as a borrowed [`WahRef`] — so a segment
/// costs the same four allocations (words, heads, `ids`, `ones`) however
/// many values it holds, and a fault-in decodes its payload straight into
/// the arena (`Segment::decode`), sharing the resident metadata's `ids`
/// and `ones`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Segment {
    rows: u64,
    /// Ascending global value ids present in this segment (`Arc`-shared so
    /// the buffer manager's resident metadata can alias them zero-copy).
    ids: Arc<[u32]>,
    /// Cached `count_ones` per bitmap (parallel to `ids`).
    ones: Arc<[u64]>,
    /// Every present id's WAH words, back to back in id order.
    words: Box<[u64]>,
    /// Each present id's slice of `words` and active tail (parallel to
    /// `ids`); the slices tile `words` in order.
    heads: Box<[Head]>,
    /// Cached total compressed bytes of the bitmaps.
    bytes: usize,
    /// Cached total maximal constant-value runs (summed set-bit interval
    /// counts) — the chooser consults this repeatedly.
    runs: u64,
}

/// An arena offset or length as stored in a [`Head`].
///
/// # Panics
/// Panics past `u32::MAX` words — a single segment of billions of rows.
fn arena_u32(n: usize) -> u32 {
    u32::try_from(n).expect("segment arena exceeds u32::MAX words")
}

impl Segment {
    /// Assembles a segment from present ids and their bitmaps — for tests
    /// and hand-built fixtures; the engine seals its segments from runs
    /// ([`Segment::from_runs`]). `pairs` need not be sorted; empty bitmaps
    /// are rejected in debug builds.
    pub fn new(rows: u64, mut pairs: Vec<(u32, Wah)>) -> Segment {
        pairs.sort_unstable_by_key(|(id, _)| *id);
        for (id, bm) in &pairs {
            debug_assert!(bm.any(), "empty bitmap for id {id} in segment");
            debug_assert_eq!(bm.len(), rows, "bitmap length mismatch in segment");
        }
        let ids = pairs.iter().map(|&(id, _)| id).collect();
        Segment::pack(rows, ids, pairs.iter().map(|(_, bm)| bm.view()))
    }

    /// Seals a bitmap segment from the run sequence of its rows, in one
    /// counting pass: the runs are counted per id in `scratch`'s
    /// id-indexed table and placed in id order, then each present id's
    /// `(gap, run)` pairs are appended to one reused bitmap whose words are
    /// copied into the arena. The ids, ones, heads, bytes and runs come out
    /// of the same pass — `runs` is the run count, since an [`RleSeq`]'s
    /// runs are maximal. WAH is canonical, so the same rows give the same
    /// bytes whatever wrote them. O(runs + present ids · log + words).
    ///
    /// # Panics
    /// Panics at `u32::MAX` runs or arena words.
    pub fn from_runs(seq: &RleSeq, scratch: &mut SealScratch) -> Segment {
        let rows = seq.len();
        assert!(
            seq.num_runs() < u32::MAX as usize,
            "segment exceeds u32::MAX runs"
        );
        scratch.count(seq);
        let SealScratch {
            slot,
            touched,
            placed,
            wah,
            words,
        } = scratch;
        touched.sort_unstable();
        // Each id's slot becomes the start of its span of `placed`, then,
        // as its runs are placed, the span's end.
        let mut at = 0u32;
        for &id in touched.iter() {
            let n = slot[id as usize];
            slot[id as usize] = at;
            at += n;
        }
        placed.clear();
        placed.resize(seq.num_runs(), (0, 0));
        for (id, start, len) in seq.iter_runs() {
            let s = &mut slot[id as usize];
            placed[*s as usize] = (start, len);
            *s += 1;
        }
        words.clear();
        let mut heads = Vec::with_capacity(touched.len());
        let mut ones = Vec::with_capacity(touched.len());
        let mut lo = 0usize;
        for &id in touched.iter() {
            let hi = slot[id as usize] as usize;
            wah.clear();
            for &(start, len) in &placed[lo..hi] {
                wah.append_run(false, start - wah.len());
                wah.append_run(true, len);
            }
            wah.append_run(false, rows - wah.len());
            heads.push(Head {
                off: arena_u32(words.len()),
                nwords: arena_u32(wah.words().len()),
                active: wah.view().active(),
                active_bits: wah.view().active_bits(),
            });
            words.extend_from_slice(wah.words());
            ones.push(wah.count_ones());
            lo = hi;
        }
        let ids: Arc<[u32]> = touched.as_slice().into();
        scratch.reset();
        Segment {
            rows,
            bytes: scratch.words.len() * 8 + 24 * heads.len(),
            ids,
            ones: ones.into(),
            words: scratch.words.as_slice().into(),
            heads: heads.into_boxed_slice(),
            runs: seq.num_runs() as u64,
        }
    }

    /// Copies `bitmaps` (parallel to `ids`, each `rows` long) into one
    /// arena sized exactly, deriving the cached stats from them.
    fn pack<'a, I>(rows: u64, ids: Arc<[u32]>, bitmaps: I) -> Segment
    where
        I: Iterator<Item = WahRef<'a>> + Clone,
    {
        let total = bitmaps.clone().map(|bm| bm.words().len()).sum();
        let mut words = Vec::with_capacity(total);
        let mut heads = Vec::with_capacity(ids.len());
        let mut ones = Vec::with_capacity(ids.len());
        let mut runs = 0u64;
        for bm in bitmaps {
            heads.push(Head {
                off: arena_u32(words.len()),
                nwords: arena_u32(bm.words().len()),
                active: bm.active(),
                active_bits: bm.active_bits(),
            });
            words.extend_from_slice(bm.words());
            ones.push(bm.count_ones());
            runs += bm.count_intervals();
        }
        Segment {
            rows,
            bytes: words.len() * 8 + 24 * heads.len(),
            ids,
            ones: ones.into(),
            words: words.into_boxed_slice(),
            heads: heads.into_boxed_slice(),
            runs,
        }
    }

    /// Decodes a bitmap payload — each present id's WAH stream, back to
    /// back in id order — straight into the arena, against the resident
    /// metadata it must match. Every word is validated and counted as it is
    /// copied ([`decode_words`]); each stream must be exactly `rows` long
    /// and non-empty, its ones must equal the metadata's, no byte may
    /// trail, and the recounted runs and bytes must equal the metadata's.
    /// The segment shares `meta`'s id and ones slices.
    pub(crate) fn decode(meta: &SegMeta, raw: &[u8]) -> Result<Segment, StorageError> {
        let corrupt = |m: &str| StorageError::PersistError(format!("segment payload: {m}"));
        let n = meta.present_ids.len();
        if meta.ones.len() != n {
            return Err(corrupt("ids and ones differ in length"));
        }
        // Every stream is a 24-byte header and its words, so the words fit
        // in what the headers leave: the exact size for a payload its
        // metadata describes, and never more than the bytes read. Each
        // stream keeps back the headers still to come, so the arena never
        // grows past this.
        let mut words = Vec::with_capacity(raw.len().saturating_sub(24 * n) / 8);
        let mut heads = Vec::with_capacity(n);
        let mut r = Reader::new(raw);
        let mut runs = 0u64;
        for (i, &ones) in meta.ones.iter().enumerate() {
            let off = words.len();
            let d = decode_words(&mut r, &mut words, 24 * (n - 1 - i))
                .map_err(|e| corrupt(&e.to_string()))?;
            if d.len != meta.rows {
                return Err(corrupt("bitmap length does not match segment rows"));
            }
            if d.ones == 0 {
                return Err(corrupt("empty bitmap for a present id"));
            }
            if d.ones != ones {
                return Err(corrupt("decoded ones do not match the footer metadata"));
            }
            heads.push(Head {
                off: u32::try_from(off).map_err(|_| corrupt("arena past u32 offsets"))?,
                nwords: u32::try_from(d.words).map_err(|_| corrupt("arena past u32 offsets"))?,
                active: d.active,
                active_bits: d.active_bits,
            });
            runs += d.intervals;
        }
        r.finish()
            .map_err(|_| corrupt("trailing bytes after payload"))?;
        let bytes = words.len() * 8 + 24 * n;
        if runs != meta.runs || bytes != meta.bytes {
            return Err(corrupt(
                "decoded runs or bytes do not match the footer metadata",
            ));
        }
        Ok(Segment {
            rows: meta.rows,
            ids: Arc::clone(&meta.present_ids),
            ones: Arc::clone(&meta.ones),
            words: words.into_boxed_slice(),
            heads: heads.into_boxed_slice(),
            bytes,
            runs,
        })
    }

    /// Number of rows covered.
    #[inline]
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// The ascending value ids present in this segment.
    #[inline]
    pub fn present_ids(&self) -> &[u32] {
        &self.ids
    }

    /// Number of distinct values present.
    #[inline]
    pub fn distinct_count(&self) -> usize {
        self.ids.len()
    }

    #[inline]
    fn view(&self, h: &Head, ones: u64) -> WahRef<'_> {
        let at = h.off as usize;
        WahRef::from_parts(
            &self.words[at..at + h.nwords as usize],
            h.active,
            h.active_bits,
            self.rows,
            ones,
        )
    }

    /// The bitmap of the `i`-th present id (parallel to
    /// [`Segment::present_ids`]).
    ///
    /// # Panics
    /// Panics if `i >= self.distinct_count()`.
    #[inline]
    pub fn bitmap(&self, i: usize) -> WahRef<'_> {
        self.view(&self.heads[i], self.ones[i])
    }

    /// Every present id with its bitmap, in id order. The heads tile the
    /// arena in that order, so the walk just cuts it front to back.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (u32, WahRef<'_>)> + '_ {
        let mut rest: &[u64] = &self.words;
        let rows = self.rows;
        self.ids
            .iter()
            .zip(self.heads.iter().zip(self.ones.iter()))
            .map(move |(&id, (h, &ones))| {
                let (words, tail) = rest.split_at(h.nwords as usize);
                rest = tail;
                (
                    id,
                    WahRef::from_parts(words, h.active, h.active_bits, rows, ones),
                )
            })
    }

    /// Index of `id` within the present-id list, if present.
    #[inline]
    pub fn position_of(&self, id: u32) -> Option<usize> {
        self.ids.binary_search(&id).ok()
    }

    /// Returns `true` when `id` occurs in this segment (O(log present)).
    #[inline]
    pub fn contains_id(&self, id: u32) -> bool {
        self.position_of(id).is_some()
    }

    /// The bitmap of `id`, if present.
    pub fn bitmap_for(&self, id: u32) -> Option<WahRef<'_>> {
        self.position_of(id).map(|i| self.bitmap(i))
    }

    /// Number of rows carrying `id` (0 when absent; O(log present)).
    pub fn count_for(&self, id: u32) -> u64 {
        self.position_of(id).map_or(0, |i| self.ones[i])
    }

    /// Cached per-present-id set-bit counts, parallel to
    /// [`Segment::present_ids`].
    #[inline]
    pub fn ones(&self) -> &[u64] {
        &self.ones
    }

    /// `Arc` handle on the present-id list (zero-copy stat sharing with the
    /// buffer manager's resident metadata).
    #[inline]
    pub(crate) fn ids_arc(&self) -> Arc<[u32]> {
        Arc::clone(&self.ids)
    }

    /// `Arc` handle on the per-id ones counts.
    #[inline]
    pub(crate) fn ones_arc(&self) -> Arc<[u64]> {
        Arc::clone(&self.ones)
    }

    /// Total compressed bitmap bytes (cached): eight per word plus 24 per
    /// present id — also the length of the segment's serialized payload.
    #[inline]
    pub fn compressed_bytes(&self) -> usize {
        self.bytes
    }

    /// The value id at segment-local `row` (O(present) bitmap probes).
    pub fn id_at(&self, row: u64) -> Option<u32> {
        debug_assert!(row < self.rows);
        self.iter().find(|(_, bm)| bm.get(row)).map(|(id, _)| id)
    }

    /// Total maximal constant-value runs in row order — the statistic the
    /// adaptive encoding chooser weighs against rows and distinct count.
    /// Each present value's maximal set-bit intervals are exactly its value
    /// runs, so the sum over present values is the segment's run count
    /// (what an RLE re-encoding would store). Cached at construction from
    /// one word-at-a-time pass over the compressed form
    /// ([`WahRef::count_intervals`]), so the chooser's repeated consults are
    /// O(1).
    pub fn run_count(&self) -> u64 {
        self.runs
    }

    /// Writes each row's value id into `out` (segment-local coordinates),
    /// one [`WahRef::scatter`] per present id, then checks every row got
    /// one. `out` holds one slot per row, each `u32::MAX` on entry. Bitmaps
    /// that overlap pass every per-bitmap check of the payload decoder and
    /// still leave some row unset: that is corrupt data, so it is a typed
    /// error here rather than a sentinel id for the next dictionary lookup
    /// to panic on. Every reader of a segment's ids goes through this.
    pub(crate) fn fill_covering(&self, out: &mut [u32]) -> Result<(), StorageError> {
        debug_assert_eq!(out.len() as u64, self.rows, "one slot per row");
        debug_assert_eq!(
            self.ones.iter().sum::<u64>(),
            self.rows,
            "bitmap ones do not sum to the row count"
        );
        for (id, bm) in self.iter() {
            bm.scatter(out, id);
        }
        if out.contains(&u32::MAX) {
            return Err(StorageError::Corrupt(format!(
                "a bitmap segment of {} rows: its bitmaps leave a row uncovered",
                self.rows
            )));
        }
        Ok(())
    }

    /// Rewrites the segment under an id translation (`map[old] = Some(new)`
    /// or `None` to drop the value's rows — only valid when the bitmap is
    /// unused). Used by dictionary merges and compaction.
    pub(crate) fn remap(&self, map: &[Option<u32>]) -> Segment {
        let mut order: Vec<(u32, usize)> = self
            .ids
            .iter()
            .enumerate()
            .filter_map(|(i, &old)| map[old as usize].map(|new| (new, i)))
            .collect();
        order.sort_unstable_by_key(|&(new, _)| new);
        let ids = order.iter().map(|&(new, _)| new).collect();
        Segment::pack(self.rows, ids, order.iter().map(|&(_, i)| self.bitmap(i)))
    }

    /// Validates the per-segment invariants: sorted unique ids, an arena
    /// its heads tile exactly, canonical bitmaps of the segment's length,
    /// non-empty bitmaps, cached stats, and the partition property (each
    /// row covered exactly once).
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.ids.len() != self.heads.len() || self.ids.len() != self.ones.len() {
            return Err("ids/heads/ones length mismatch".into());
        }
        if self.ids.windows(2).any(|w| w[0] >= w[1]) {
            return Err("present ids not strictly ascending".into());
        }
        let mut at = 0usize;
        for h in self.heads.iter() {
            if h.off as usize != at {
                return Err("bitmap heads do not tile the word arena".into());
            }
            at += h.nwords as usize;
        }
        if at != self.words.len() {
            return Err("word arena holds words no bitmap owns".into());
        }
        let mut total_ones = 0u64;
        let mut runs = 0u64;
        for (id, bm) in self.iter() {
            bm.check_invariants()
                .map_err(|e| format!("bitmap of id {id}: {e}"))?;
            if !bm.any() {
                return Err(format!("empty bitmap for id {id} (segment not sparse)"));
            }
            total_ones += bm.count_ones();
            runs += bm.count_intervals();
        }
        if total_ones != self.rows {
            return Err(format!(
                "partition invariant violated: {total_ones} ones over {} rows",
                self.rows
            ));
        }
        if self.words.len() * 8 + 24 * self.heads.len() != self.bytes {
            return Err("stale byte-size cache".into());
        }
        if runs != self.runs {
            return Err("stale run-count cache".into());
        }
        // Ones totalling rows plus full coverage implies disjointness;
        // verify coverage on small segments via an OR-fold.
        if self.rows > 0 && self.rows <= 10_000 {
            let union = WahRef::union_many(self.iter().map(|(_, bm)| bm), self.rows);
            if union.count_ones() != self.rows {
                return Err("partition invariant violated: overlapping bitmaps".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_stats_and_lookup() {
        let s = Segment::new(
            6,
            vec![
                (7, Wah::from_sorted_positions([0u64, 3, 5], 6)),
                (2, Wah::from_sorted_positions([1u64, 2, 4], 6)),
            ],
        );
        s.check_invariants().unwrap();
        assert_eq!(s.present_ids(), &[2, 7]);
        assert_eq!(s.count_for(7), 3);
        assert_eq!(s.count_for(9), 0);
        assert!(s.contains_id(2));
        assert!(!s.contains_id(3));
        assert_eq!(s.id_at(0), Some(7));
        assert_eq!(s.id_at(1), Some(2));
    }

    #[test]
    fn zone_of_ids_merge_and_remap() {
        // ranks: id 0 → rank 2, id 1 → rank 0, id 2 → rank 1.
        let ranks = [2u32, 0, 1];
        let z = Zone::of_ids(&[0, 2], &ranks);
        assert_eq!(
            z,
            Zone {
                min_id: 2,
                max_id: 0
            }
        );
        let w = Zone::of_ids(&[1], &ranks);
        let m = z.merge(w, &ranks);
        assert_eq!(
            m,
            Zone {
                min_id: 1,
                max_id: 0
            }
        );
        let r = m.remap(&[Some(5), Some(6), Some(7)]);
        assert_eq!(
            r,
            Zone {
                min_id: 6,
                max_id: 5
            }
        );
    }

    #[test]
    fn from_runs_seals_each_id_in_one_pass() {
        // Rows 1 1 3 3 3 8 8: id 3's run crosses where two pieces met.
        let seq: RleSeq = [1u32, 1, 3, 3, 3, 8, 8].into_iter().collect();
        let mut scratch = SealScratch::default();
        for _ in 0..2 {
            let s = Segment::from_runs(&seq, &mut scratch);
            s.check_invariants().unwrap();
            assert_eq!(s.rows(), 7);
            assert_eq!(s.present_ids(), &[1, 3, 8]);
            assert_eq!(s.ones(), &[2, 3, 2]);
            assert_eq!(s.run_count(), 3);
            assert_eq!(s.bitmap_for(3).unwrap().to_positions(), vec![2, 3, 4]);
            assert_eq!(s.bitmap_for(8).unwrap().to_positions(), vec![5, 6]);
        }
        // An id seen by an earlier seal is gone from the next one.
        let other: RleSeq = [8u32, 2, 8].into_iter().collect();
        let s = Segment::from_runs(&other, &mut scratch);
        assert_eq!(s.present_ids(), &[2, 8]);
        assert_eq!(s.bitmap_for(8).unwrap().to_positions(), vec![0, 2]);
        assert_eq!(s.run_count(), 3);
        assert_eq!(scratch.distinct(&seq), 3);
    }

    #[test]
    fn run_count_counts_value_runs() {
        // Rows: 7 7 2 2 7 → runs [7, 2, 7] = 3.
        let s = Segment::new(
            5,
            vec![
                (7, Wah::from_sorted_positions([0u64, 1, 4], 5)),
                (2, Wah::from_sorted_positions([2u64, 3], 5)),
            ],
        );
        assert_eq!(s.run_count(), 3);
    }

    #[test]
    fn remap_translates_and_resorts() {
        let s = Segment::new(
            3,
            vec![
                (0, Wah::from_sorted_positions([0u64], 3)),
                (1, Wah::from_sorted_positions([1u64, 2], 3)),
            ],
        );
        let r = s.remap(&[Some(4), Some(1)]);
        r.check_invariants().unwrap();
        assert_eq!(r.present_ids(), &[1, 4]);
        assert_eq!(r.count_for(1), 2);
        assert_eq!(r.count_for(4), 1);
    }
}
