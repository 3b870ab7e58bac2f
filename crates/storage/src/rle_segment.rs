//! Run-length-encoded row-range segments — the alternative per-segment
//! encoding the paper notes is "sometimes used for special columns, such as
//! run length encoding for sorted columns" (§2.2).
//!
//! An [`RleSegment`] is the RLE twin of the bitmap
//! [`Segment`](crate::segment::Segment): it covers a consecutive row range
//! of a column, stores that range's run sequence over *global* value ids,
//! and caches the same per-segment statistics (present ids, per-id row
//! counts) that scans use to prune whole segments. Since the unified
//! directory refactor both segment kinds live side by side inside one
//! [`EncodedColumn`](crate::encoded::EncodedColumn) — a clustered prefix of
//! a column can be RLE while its high-churn suffix stays bitmap.

use cods_bitmap::{RleSeq, Wah};
use std::collections::HashMap;
use std::sync::Arc;

/// One immutable row-range segment in the RLE encoding: the run sequence of
/// the segment's rows over global value ids, plus cached statistics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RleSegment {
    seq: RleSeq,
    /// Ascending global value ids present in this segment (`Arc`-shared so
    /// the buffer manager's resident metadata can alias them zero-copy).
    ids: Arc<[u32]>,
    /// Rows carrying each present id (parallel to `ids`).
    ones: Arc<[u64]>,
}

impl RleSegment {
    /// Builds a segment from a run sequence, deriving the stats.
    pub fn new(seq: RleSeq) -> RleSegment {
        let mut counts: HashMap<u32, u64> = HashMap::new();
        for &(id, n) in seq.runs() {
            *counts.entry(id).or_insert(0) += n;
        }
        let mut pairs: Vec<(u32, u64)> = counts.into_iter().collect();
        pairs.sort_unstable_by_key(|&(id, _)| id);
        let (ids, ones): (Vec<u32>, Vec<u64>) = pairs.into_iter().unzip();
        RleSegment {
            seq,
            ids: ids.into(),
            ones: ones.into(),
        }
    }

    /// Number of rows covered.
    #[inline]
    pub fn rows(&self) -> u64 {
        self.seq.len()
    }

    /// The run sequence (segment-local offsets, global value ids).
    #[inline]
    pub fn seq(&self) -> &RleSeq {
        &self.seq
    }

    /// Number of runs (the compressed size driver).
    #[inline]
    pub fn num_runs(&self) -> usize {
        self.seq.num_runs()
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

    /// Cached per-present-id row counts, parallel to
    /// [`RleSegment::present_ids`].
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

    /// `Arc` handle on the per-id row counts.
    #[inline]
    pub(crate) fn ones_arc(&self) -> Arc<[u64]> {
        Arc::clone(&self.ones)
    }

    /// Returns `true` when `id` occurs in this segment (O(log present)).
    #[inline]
    pub fn contains_id(&self, id: u32) -> bool {
        self.ids.binary_search(&id).is_ok()
    }

    /// Number of rows carrying `id` (0 when absent; O(log present)).
    pub fn count_for(&self, id: u32) -> u64 {
        self.ids.binary_search(&id).map_or(0, |i| self.ones[i])
    }

    /// Compressed bytes of the run sequence.
    #[inline]
    pub fn compressed_bytes(&self) -> usize {
        self.seq.size_bytes()
    }

    /// Rewrites the segment under an id translation (`map[old] = Some(new)`;
    /// `None` is only valid for ids not present). O(runs).
    pub(crate) fn remap(&self, map: &[Option<u32>]) -> RleSegment {
        let mut seq = RleSeq::new();
        for &(id, n) in self.seq.runs() {
            let new = map[id as usize].expect("remap drops a present value");
            seq.append_run(new, n);
        }
        RleSegment::new(seq)
    }

    /// Splices the bitmap of value `id` over this segment onto `out`
    /// (appends `rows()` bits). O(runs).
    pub(crate) fn append_value_bitmap(&self, id: u32, out: &mut Wah) {
        if !self.contains_id(id) {
            out.append_run(false, self.rows());
            return;
        }
        for &(v, n) in self.seq.runs() {
            out.append_run(v == id, n);
        }
    }

    /// Validates the per-segment invariants: non-empty, sorted unique
    /// present ids, and stats matching the run sequence.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.ids.len() != self.ones.len() {
            return Err("ids/ones length mismatch".into());
        }
        if self.ids.windows(2).any(|w| w[0] >= w[1]) {
            return Err("present ids not strictly ascending".into());
        }
        let fresh = RleSegment::new(self.seq.clone());
        if fresh.ids != self.ids || fresh.ones != self.ones {
            return Err("stale present-id stats".into());
        }
        if self.seq.runs().iter().any(|&(_, n)| n == 0) {
            return Err("zero-length run".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_of(ids: &[u32]) -> RleSeq {
        let mut s = RleSeq::new();
        for &id in ids {
            s.push(id);
        }
        s
    }

    #[test]
    fn stats_and_lookup() {
        let s = RleSegment::new(seq_of(&[7, 7, 2, 2, 2, 7]));
        s.check_invariants().unwrap();
        assert_eq!(s.rows(), 6);
        assert_eq!(s.present_ids(), &[2, 7]);
        assert_eq!(s.count_for(7), 3);
        assert_eq!(s.count_for(9), 0);
        assert!(s.contains_id(2));
        assert!(!s.contains_id(3));
        assert_eq!(s.num_runs(), 3);
    }

    #[test]
    fn remap_translates() {
        let s = RleSegment::new(seq_of(&[0, 1, 1]));
        let r = s.remap(&[Some(4), Some(1)]);
        r.check_invariants().unwrap();
        assert_eq!(r.present_ids(), &[1, 4]);
        assert_eq!(r.count_for(1), 2);
    }
}
