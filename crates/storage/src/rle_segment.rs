//! Run-length-encoded row-range segments — the alternative per-segment
//! encoding the paper notes is "sometimes used for special columns, such as
//! run length encoding for sorted columns" (§2.2).
//!
//! An [`RleSegment`] is the RLE twin of the bitmap
//! [`Segment`](crate::segment::Segment): the payload of a consecutive row
//! range of a column, that range's run sequence over *global* value ids.
//! Like the bitmap payload it carries no statistics of its own: a segment's
//! present ids, per-id rows, runs and bytes live in its
//! [`SegMeta`], counted once when it is sealed and
//! recounted from the runs ([`RleSegment::recount`]) whenever a payload is
//! decoded or checked. Both segment kinds live side by side inside one
//! [`EncodedColumn`](crate::encoded::EncodedColumn) — a clustered prefix of
//! a column can be RLE while its high-churn suffix stays bitmap.

use crate::encoded::Encoding;
use crate::store::{Present, SegMeta};
use cods_bitmap::{RleSeq, Wah};

/// One immutable row-range segment's payload in the RLE encoding: the run
/// sequence of the segment's rows over global value ids.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RleSegment {
    seq: RleSeq,
}

impl RleSegment {
    /// Wraps a run sequence.
    pub fn new(seq: RleSeq) -> RleSegment {
        RleSegment { seq }
    }

    /// The run sequence (segment-local offsets, global value ids).
    #[inline]
    pub fn seq(&self) -> &RleSeq {
        &self.seq
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
    /// (appends the segment's rows as bits). O(runs).
    pub(crate) fn append_value_bitmap(&self, id: u32, out: &mut Wah) {
        for &(v, n) in self.seq.runs() {
            out.append_run(v == id, n);
        }
    }

    /// Recounts the stats from the runs: the rows, each present id's rows
    /// (the runs sorted by id and folded), the runs, which an [`RleSeq`]
    /// keeps maximal, and their bytes. The RLE side of the one payload
    /// check ([`SegMeta::check_payload`]). O(runs · log runs).
    pub fn recount(&self) -> SegMeta {
        let mut by_id = self.seq.runs().to_vec();
        by_id.sort_unstable_by_key(|&(id, _)| id);
        let (mut ids, mut ones): (Vec<u32>, Vec<u64>) = (Vec::new(), Vec::new());
        for (id, n) in by_id {
            match ones.last_mut() {
                Some(last) if ids.last() == Some(&id) => *last += n,
                _ => {
                    ids.push(id);
                    ones.push(n);
                }
            }
        }
        SegMeta {
            rows: self.seq.len(),
            present: Present::List {
                ids: ids.into(),
                ones: ones.into(),
            },
            runs: self.seq.num_runs() as u64,
            bytes: self.seq.size_bytes(),
            encoding: Encoding::Rle,
        }
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
        let m = s.recount();
        m.check().unwrap();
        assert_eq!(m.rows, 6);
        assert_eq!(m.present.ids().collect::<Vec<_>>(), [2, 7]);
        assert_eq!(m.count_for(7), 3);
        assert_eq!(m.count_for(9), 0);
        assert!(m.contains_id(2));
        assert!(!m.contains_id(3));
        assert_eq!(m.runs, 3);
        assert_eq!(m.bytes, s.seq().size_bytes());
    }

    #[test]
    fn remap_translates() {
        let s = RleSegment::new(seq_of(&[0, 1, 1]));
        let r = s.remap(&[Some(4), Some(1)]).recount();
        r.check().unwrap();
        assert_eq!(r.present.ids().collect::<Vec<_>>(), [1, 4]);
        assert_eq!(r.count_for(1), 2);
    }
}
