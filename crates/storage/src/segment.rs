//! Row-range segments: the unit of storage, parallelism, and pruning of a
//! segmented [`EncodedColumn`](crate::encoded::EncodedColumn).
//!
//! A column is a column-global dictionary plus a directory of segments,
//! each covering a consecutive row range (nominally
//! [`DEFAULT_SEGMENT_ROWS`] rows) in its own encoding. The bitmap
//! [`Segment`] defined here stores one WAH bitmap per value id *that occurs
//! in its range* — sparse, so a value concentrated in one part of the table
//! costs nothing elsewhere — along with per-segment statistics (row count,
//! present ids, per-id ones, compressed size) that scans use to prune
//! entire segments without touching bitmap words. Its RLE twin lives in
//! [`rle_segment`](crate::rle_segment).
//!
//! Segments are immutable and `Arc`-shared: appending tables (UNION) and
//! row-range extraction reuse existing segments by reference instead of
//! rewriting bitmaps.

use cods_bitmap::Wah;
use std::collections::HashMap;
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

/// Splits a non-decreasing global position list into per-segment spans:
/// `(segment index, range into positions)`. Shared by both encodings'
/// serial filter paths and the segment-parallel executors in `cods` core.
///
/// # Panics
/// Panics when a position is outside the rows covered by `seg_sizes`.
pub(crate) fn position_spans(seg_sizes: &[u64], positions: &[u64]) -> Vec<(usize, Range<usize>)> {
    let mut spans = Vec::new();
    let mut lo = 0usize;
    let mut start = 0u64;
    for (seg_idx, &rows) in seg_sizes.iter().enumerate() {
        if lo == positions.len() {
            break;
        }
        let end_row = start + rows;
        let hi = lo + positions[lo..].partition_point(|&p| p < end_row);
        if hi > lo {
            spans.push((seg_idx, lo..hi));
            lo = hi;
        }
        start = end_row;
    }
    // Hard check (not debug-only): an out-of-range position must panic
    // like a dense id-gather would, not silently shrink the output.
    assert_eq!(
        lo,
        positions.len(),
        "position {} out of range for {} rows",
        positions[lo.min(positions.len().saturating_sub(1))],
        seg_sizes.iter().sum::<u64>()
    );
    spans
}

/// One immutable row-range segment: sparse per-value bitmaps over the
/// segment's rows, plus cached statistics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Segment {
    rows: u64,
    /// Ascending global value ids present in this segment (`Arc`-shared so
    /// the buffer manager's resident metadata can alias them zero-copy).
    ids: Arc<[u32]>,
    /// One bitmap per present id (parallel to `ids`), each of length `rows`.
    bitmaps: Vec<Wah>,
    /// Cached `count_ones` per bitmap (parallel to `ids`).
    ones: Arc<[u64]>,
    /// Cached total compressed bytes of the bitmaps.
    bytes: usize,
    /// Cached total maximal constant-value runs (summed set-bit interval
    /// counts) — the chooser consults this repeatedly.
    runs: u64,
}

impl Segment {
    /// Assembles a segment from present ids and their bitmaps. `pairs` need
    /// not be sorted; empty bitmaps are rejected in debug builds (callers
    /// drop them before constructing).
    pub fn new(rows: u64, mut pairs: Vec<(u32, Wah)>) -> Segment {
        pairs.sort_unstable_by_key(|(id, _)| *id);
        let mut ids = Vec::with_capacity(pairs.len());
        let mut bitmaps = Vec::with_capacity(pairs.len());
        let mut ones = Vec::with_capacity(pairs.len());
        let mut bytes = 0;
        let mut runs = 0u64;
        for (id, bm) in pairs {
            debug_assert!(bm.any(), "empty bitmap for id {id} in segment");
            debug_assert_eq!(bm.len(), rows, "bitmap length mismatch in segment");
            ones.push(bm.count_ones());
            bytes += bm.size_bytes();
            runs += bm.count_intervals();
            ids.push(id);
            bitmaps.push(bm);
        }
        Segment {
            rows,
            ids: ids.into(),
            bitmaps,
            ones: ones.into(),
            bytes,
            runs,
        }
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

    /// The per-id bitmaps, parallel to [`Segment::present_ids`].
    #[inline]
    pub fn bitmaps(&self) -> &[Wah] {
        &self.bitmaps
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
    pub fn bitmap_for(&self, id: u32) -> Option<&Wah> {
        self.position_of(id).map(|i| &self.bitmaps[i])
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

    /// Total compressed bitmap bytes (cached).
    #[inline]
    pub fn compressed_bytes(&self) -> usize {
        self.bytes
    }

    /// The value id at segment-local `row` (O(present) bitmap probes).
    pub fn id_at(&self, row: u64) -> Option<u32> {
        debug_assert!(row < self.rows);
        self.ids
            .iter()
            .zip(&self.bitmaps)
            .find(|(_, bm)| bm.get(row))
            .map(|(&id, _)| id)
    }

    /// Total maximal constant-value runs in row order — the statistic the
    /// adaptive encoding chooser weighs against rows and distinct count.
    /// Each present value's maximal set-bit intervals are exactly its value
    /// runs, so the sum over present values is the segment's run count
    /// (what an RLE re-encoding would store). Cached at construction from
    /// one word-at-a-time pass over the compressed form
    /// ([`Wah::count_intervals`]), so the chooser's repeated consults are
    /// O(1).
    pub fn run_count(&self) -> u64 {
        self.runs
    }

    /// Splices consecutive segments into one, combining cached statistics
    /// from the parts instead of recounting them: per-id ones are summed,
    /// present ids merged, and bitmaps concatenated with zero fills — the
    /// compaction merge path (undersized directory fragments after long
    /// UNION chains) never rescans payload to rebuild stats.
    pub fn splice(parts: &[&Segment]) -> Segment {
        if parts.len() == 1 {
            return parts[0].clone();
        }
        let rows: u64 = parts.iter().map(|s| s.rows).sum();
        // id → (bitmap so far, rows emitted so far, summed ones).
        let mut acc: HashMap<u32, (Wah, u64, u64)> = HashMap::new();
        let mut offset = 0u64;
        for part in parts {
            for ((&id, bm), &ones) in part.ids.iter().zip(&part.bitmaps).zip(part.ones.iter()) {
                let (out, emitted, total) = acc.entry(id).or_insert_with(|| (Wah::new(), 0, 0));
                if *emitted < offset {
                    out.append_run(false, offset - *emitted);
                }
                out.append_bitmap(bm);
                *emitted = offset + part.rows;
                *total += ones;
            }
            offset += part.rows;
        }
        let mut entries: Vec<(u32, Wah, u64)> = acc
            .into_iter()
            .map(|(id, (mut bm, emitted, ones))| {
                if emitted < rows {
                    bm.append_run(false, rows - emitted);
                }
                (id, bm, ones)
            })
            .collect();
        entries.sort_unstable_by_key(|&(id, _, _)| id);
        let mut ids = Vec::with_capacity(entries.len());
        let mut bitmaps = Vec::with_capacity(entries.len());
        let mut ones = Vec::with_capacity(entries.len());
        let mut bytes = 0usize;
        let mut runs = 0u64;
        for (id, bm, n) in entries {
            debug_assert_eq!(bm.count_ones(), n, "spliced ones stat for id {id}");
            bytes += bm.size_bytes();
            // Runs cannot be spliced from the parts (a run crossing the
            // boundary fuses), so recount on the compressed form.
            runs += bm.count_intervals();
            ids.push(id);
            bitmaps.push(bm);
            ones.push(n);
        }
        Segment {
            rows,
            ids: ids.into(),
            bitmaps,
            ones: ones.into(),
            bytes,
            runs,
        }
    }

    /// Writes each row's value id into `out` (segment-local coordinates),
    /// one [`Wah::scatter`] per present id. `out` holds one slot per row,
    /// each `u32::MAX` on entry.
    pub(crate) fn fill_ids(&self, out: &mut [u32]) {
        for (&id, bm) in self.ids.iter().zip(&self.bitmaps) {
            bm.scatter(out, id);
        }
        self.debug_check_partition(out);
    }

    /// Writes each row's *local slot index* (position in `present_ids`)
    /// into `out`, under [`Segment::fill_ids`]' contract.
    pub(crate) fn fill_local_slots(&self, out: &mut [u32]) {
        for (slot, bm) in self.bitmaps.iter().enumerate() {
            bm.scatter(out, slot as u32);
        }
        self.debug_check_partition(out);
    }

    /// Debug builds: the bitmaps just scattered into `out` partitioned its
    /// rows — their ones sum to the row count and no `u32::MAX` is left, so
    /// no row was written twice.
    fn debug_check_partition(&self, out: &[u32]) {
        debug_assert_eq!(out.len() as u64, self.rows, "one slot per row");
        debug_assert_eq!(
            self.bitmaps.iter().map(Wah::count_ones).sum::<u64>(),
            self.rows,
            "bitmap ones do not sum to the row count"
        );
        debug_assert!(out.iter().all(|&x| x != u32::MAX), "uncovered row");
    }

    /// Re-expresses the segment as an unaligned [`SegmentChunk`] (bitmaps
    /// cloned), the form compaction feeds back through an assembler when
    /// regrouping.
    pub fn to_chunk(&self) -> SegmentChunk {
        SegmentChunk {
            ids: self.ids.to_vec(),
            bitmaps: self.bitmaps.clone(),
            rows: self.rows,
        }
    }

    /// Rewrites the segment under an id translation (`map[old] = Some(new)`
    /// or `None` to drop the value's rows — only valid when the bitmap is
    /// unused). Used by dictionary merges and compaction.
    pub(crate) fn remap(&self, map: &[Option<u32>]) -> Segment {
        let pairs: Vec<(u32, Wah)> = self
            .ids
            .iter()
            .zip(&self.bitmaps)
            .filter_map(|(&old, bm)| map[old as usize].map(|new| (new, bm.clone())))
            .collect();
        Segment::new(self.rows, pairs)
    }

    /// Validates the per-segment invariants: sorted unique ids, bitmap
    /// lengths, non-empty bitmaps, cached stats, and the partition property
    /// (each row covered exactly once).
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.ids.len() != self.bitmaps.len() || self.ids.len() != self.ones.len() {
            return Err("ids/bitmaps/ones length mismatch".into());
        }
        if self.ids.windows(2).any(|w| w[0] >= w[1]) {
            return Err("present ids not strictly ascending".into());
        }
        let mut total_ones = 0u64;
        let mut bytes = 0usize;
        for ((id, bm), &ones) in self.ids.iter().zip(&self.bitmaps).zip(self.ones.iter()) {
            bm.check_invariants()
                .map_err(|e| format!("bitmap of id {id}: {e}"))?;
            if bm.len() != self.rows {
                return Err(format!(
                    "bitmap of id {id} has length {}, segment has {} rows",
                    bm.len(),
                    self.rows
                ));
            }
            if !bm.any() {
                return Err(format!("empty bitmap for id {id} (segment not sparse)"));
            }
            if bm.count_ones() != ones {
                return Err(format!("stale ones cache for id {id}"));
            }
            total_ones += ones;
            bytes += bm.size_bytes();
        }
        if total_ones != self.rows {
            return Err(format!(
                "partition invariant violated: {total_ones} ones over {} rows",
                self.rows
            ));
        }
        if bytes != self.bytes {
            return Err("stale byte-size cache".into());
        }
        let runs: u64 = self.bitmaps.iter().map(Wah::count_intervals).sum();
        if runs != self.runs {
            return Err("stale run-count cache".into());
        }
        // Ones totalling rows plus full coverage implies disjointness;
        // verify coverage on small segments via an OR-fold.
        if self.rows > 0 && self.rows <= 10_000 {
            let union = Wah::union_many(self.bitmaps.iter(), self.rows);
            if union.count_ones() != self.rows {
                return Err("partition invariant violated: overlapping bitmaps".into());
            }
        }
        Ok(())
    }
}

/// Accumulates per-value bitmaps with lazy zero padding: values absent
/// from a stretch of rows are back-filled with a zero run the next time
/// they appear (and at finish), so cost is proportional to the values
/// actually present. The one shared implementation of the idiom used by
/// RLE→bitmap transcoding and the unified assembler's mixed-piece seal.
pub(crate) struct PaddedBitmaps {
    acc: HashMap<u32, (Wah, u64)>,
}

impl PaddedBitmaps {
    pub(crate) fn new() -> PaddedBitmaps {
        PaddedBitmaps {
            acc: HashMap::new(),
        }
    }

    /// Appends `len` set rows of value `id` starting at absolute row `at`.
    pub(crate) fn append_run(&mut self, id: u32, at: u64, len: u64) {
        let (bm, emitted) = self.acc.entry(id).or_insert_with(|| (Wah::new(), 0));
        if *emitted < at {
            bm.append_run(false, at - *emitted);
        }
        bm.append_run(true, len);
        *emitted = at + len;
    }

    /// Appends an existing bitmap piece of value `id` covering absolute
    /// rows `[offset, offset + piece.len())`.
    pub(crate) fn append_bitmap(&mut self, id: u32, piece: &Wah, offset: u64) {
        let (bm, emitted) = self.acc.entry(id).or_insert_with(|| (Wah::new(), 0));
        if *emitted < offset {
            bm.append_run(false, offset - *emitted);
        }
        bm.append_bitmap(piece);
        *emitted = offset + piece.len();
    }

    /// Pads every bitmap to `rows` and returns the `(id, bitmap)` pairs.
    pub(crate) fn finish(self, rows: u64) -> Vec<(u32, Wah)> {
        self.acc
            .into_iter()
            .map(|(id, (mut bm, emitted))| {
                if emitted < rows {
                    bm.append_run(false, rows - emitted);
                }
                (id, bm)
            })
            .collect()
    }
}

/// The output of one per-segment operation: sparse per-value bitmaps over a
/// run of consecutive output rows, not yet aligned to segment boundaries.
/// Chunks are produced independently (and in parallel) per input segment
/// and spliced into output segments by a [`SegmentAssembler`].
#[derive(Debug)]
pub struct SegmentChunk {
    /// Present value ids (need not be sorted).
    pub ids: Vec<u32>,
    /// One bitmap per id in `ids`, each `rows` long.
    pub bitmaps: Vec<Wah>,
    /// Output rows covered by this chunk.
    pub rows: u64,
}

impl SegmentChunk {
    /// A chunk covering zero rows.
    pub fn empty() -> SegmentChunk {
        SegmentChunk {
            ids: Vec::new(),
            bitmaps: Vec::new(),
            rows: 0,
        }
    }

    /// Builds a chunk from a stream of value ids, one per output row in
    /// order. `distinct_hint` is the id-space size (dictionary length);
    /// when it is small relative to the chunk a dense builder array is
    /// used, otherwise a hash map — so cost is O(rows) either way without
    /// a huge allocation for sparse chunks.
    pub fn from_ids<I: IntoIterator<Item = u32>>(
        ids: I,
        rows: u64,
        distinct_hint: usize,
    ) -> SegmentChunk {
        let mut out_ids = Vec::new();
        let mut out_bitmaps = Vec::new();
        if (distinct_hint as u64) <= rows.max(4096) {
            let mut builders: Vec<cods_bitmap::OneStreamBuilder> = Vec::new();
            builders.resize_with(distinct_hint, cods_bitmap::OneStreamBuilder::new);
            let mut active: Vec<u32> = Vec::new();
            for (row, id) in ids.into_iter().enumerate() {
                let b = &mut builders[id as usize];
                if b.ones() == 0 {
                    active.push(id);
                }
                b.push_one(row as u64);
            }
            active.sort_unstable();
            for id in active {
                let b = std::mem::replace(
                    &mut builders[id as usize],
                    cods_bitmap::OneStreamBuilder::new(),
                );
                out_ids.push(id);
                out_bitmaps.push(b.finish(rows));
            }
        } else {
            let mut builders: HashMap<u32, cods_bitmap::OneStreamBuilder> = HashMap::new();
            for (row, id) in ids.into_iter().enumerate() {
                builders.entry(id).or_default().push_one(row as u64);
            }
            for (id, b) in builders {
                out_ids.push(id);
                out_bitmaps.push(b.finish(rows));
            }
        }
        SegmentChunk {
            ids: out_ids,
            bitmaps: out_bitmaps,
            rows,
        }
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
    fn splice_combines_stats_without_recounting() {
        let a = Segment::new(
            4,
            vec![
                (1, Wah::from_sorted_positions([0u64, 1], 4)),
                (3, Wah::from_sorted_positions([2u64, 3], 4)),
            ],
        );
        let b = Segment::new(
            3,
            vec![
                (3, Wah::from_sorted_positions([0u64], 3)),
                (8, Wah::from_sorted_positions([1u64, 2], 3)),
            ],
        );
        let s = Segment::splice(&[&a, &b]);
        s.check_invariants().unwrap();
        assert_eq!(s.rows(), 7);
        assert_eq!(s.present_ids(), &[1, 3, 8]);
        assert_eq!(s.count_for(3), 3);
        assert_eq!(
            s.bitmap_for(3).unwrap().to_positions(),
            vec![2, 3, 4],
            "value 3 spans the splice boundary"
        );
        assert_eq!(s.bitmap_for(8).unwrap().to_positions(), vec![5, 6]);
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
