//! Bit-packed row-range segments — the encoding for near-unique row
//! ranges, where one WAH bitmap per value stops paying (the top of the
//! paper's Figure 3 sweep over distinct values).
//!
//! A [`PackedSegment`] stores, for each row, that row's *code*: the
//! position of its value id among the segment's present ids. The codes are
//! bit-packed LSB-first into little-endian `u64` words at the segment's
//! width, `max(1, bits(distinct − 1))` ([`width_for`]). There is no
//! header: the width and the exact length, `8·⌈rows·width/64⌉` bytes
//! ([`payload_len`]), follow from the segment's [`SegMeta`], whose present
//! ids turn codes back into ids. Like the other payloads it carries no
//! statistics of its own: the meta's ones, runs and bytes are recounted
//! from the codes ([`PackedSegment::recount`]) whenever the payload is
//! decoded or checked.
//!
//! A *range* segment — row `r` holds id `first + r`, each id once, what a
//! dense key's segments are — is a packed segment whose codes are the
//! identity. It stores no codes at all: its meta is the range
//! ([`Present::Range`]), its payload empty, and every read derives a row's
//! id from the row.

use crate::encoded::Encoding;
use crate::store::{Present, SegMeta};
use bytes::BufMut;
use cods_bitmap::{RleSeq, Wah};
use std::sync::Arc;

/// The code width of a segment holding `distinct` present ids:
/// `max(1, bits(distinct − 1))`.
pub fn width_for(distinct: usize) -> u32 {
    let top = distinct.saturating_sub(1) as u64;
    (u64::BITS - top.leading_zeros()).max(1)
}

/// The exact payload length, in bytes, of a packed segment of `rows` rows
/// over `distinct` present ids; `None` when it overflows.
pub fn payload_len(rows: u64, distinct: usize) -> Option<u64> {
    rows.checked_mul(u64::from(width_for(distinct)))?
        .div_ceil(64)
        .checked_mul(8)
}

/// One immutable row-range segment's payload in the packed encoding: each
/// row's position in the meta's present ids, bit-packed — or, for a range,
/// nothing: its codes are the rows.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PackedSegment {
    rows: u64,
    width: u32,
    /// The meta's present ids, what a code indexes.
    ids: Present,
    /// The packed codes, LSB-first, zero past the last row's bits; empty
    /// for a range.
    words: Arc<[u64]>,
}

/// Appends fixed-width codes to a word vector, LSB-first.
struct Packer {
    words: Vec<u64>,
    acc: u64,
    fill: u32,
    width: u32,
}

impl Packer {
    fn new(width: u32, rows: u64) -> Packer {
        Packer {
            words: Vec::with_capacity((rows * u64::from(width)).div_ceil(64) as usize),
            acc: 0,
            fill: 0,
            width,
        }
    }

    #[inline]
    fn push(&mut self, code: u64) {
        self.acc |= code << self.fill;
        self.fill += self.width;
        if self.fill >= 64 {
            self.words.push(self.acc);
            self.fill -= 64;
            // The code's bits that did not fit start the next word.
            self.acc = if self.fill == 0 {
                0
            } else {
                code >> (self.width - self.fill)
            };
        }
    }

    fn finish(mut self) -> Arc<[u64]> {
        if self.fill > 0 {
            self.words.push(self.acc);
        }
        self.words.into()
    }
}

/// The codes from some row on, in row order (unbounded: the caller takes
/// the rows it wants).
struct Codes<'a> {
    words: &'a [u64],
    bit: u64,
    width: u32,
    mask: u64,
}

impl Iterator for Codes<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        let w = (self.bit / 64) as usize;
        let off = (self.bit % 64) as u32;
        let mut v = self.words[w] >> off;
        if off + self.width > 64 {
            v |= self.words[w + 1] << (64 - off);
        }
        self.bit += u64::from(self.width);
        Some((v & self.mask) as u32)
    }
}

impl PackedSegment {
    /// Packs the rows of `seq`, whose present ids are `meta`'s, given each
    /// id's code (`code[id]`, its position in the present ids — what the
    /// seal's scratch holds after its count). Sets `meta.bytes`; the
    /// segment shares `meta`'s ids. O(rows).
    pub(crate) fn from_runs(seq: &RleSeq, meta: &mut SegMeta, code: &[u32]) -> PackedSegment {
        let width = width_for(meta.distinct_count());
        let mut p = Packer::new(width, seq.len());
        for &(id, n) in seq.runs() {
            let c = u64::from(code[id as usize]);
            for _ in 0..n {
                p.push(c);
            }
        }
        let words = p.finish();
        meta.bytes = 8 * words.len();
        PackedSegment {
            rows: seq.len(),
            width,
            ids: meta.present.clone(),
            words,
        }
    }

    /// The payload of a range segment (`meta` a [`Present::Range`]): no
    /// codes, each row's id derived from the row.
    pub(crate) fn range(meta: &SegMeta) -> PackedSegment {
        debug_assert!(meta.is_range());
        PackedSegment {
            rows: meta.rows,
            width: 0,
            ids: meta.present.clone(),
            words: Arc::from([]),
        }
    }

    /// The first id of a range segment: row `r` holds `first + r`.
    #[inline]
    pub fn range_first(&self) -> Option<u32> {
        self.ids.range().map(|r| r.start)
    }

    /// Reads a packed payload against `meta`: its length must be exactly
    /// [`payload_len`], checked before anything is sized from it. The codes
    /// themselves are checked by [`PackedSegment::recount`].
    pub(crate) fn decode(meta: &SegMeta, raw: &[u8]) -> Result<PackedSegment, String> {
        if meta.is_range() {
            if !raw.is_empty() {
                return Err(format!(
                    "a range segment with a payload of {} bytes",
                    raw.len()
                ));
            }
            return Ok(PackedSegment::range(meta));
        }
        let want = payload_len(meta.rows, meta.distinct_count())
            .ok_or("packed payload length overflows")?;
        if raw.len() as u64 != want {
            return Err(format!(
                "packed payload of {} bytes, its metadata gives {want}",
                raw.len()
            ));
        }
        let words = raw
            .chunks_exact(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("eight bytes")))
            .collect();
        Ok(PackedSegment {
            rows: meta.rows,
            width: width_for(meta.distinct_count()),
            ids: meta.present.clone(),
            words,
        })
    }

    /// Writes the payload [`PackedSegment::decode`] reads: the words, little
    /// endian.
    pub(crate) fn encode<B: BufMut>(&self, buf: &mut B) {
        for &w in self.words.iter() {
            buf.put_u64_le(w);
        }
    }

    /// The length of [`PackedSegment::encode`]'s output.
    pub(crate) fn encoded_len(&self) -> usize {
        8 * self.words.len()
    }

    /// The code width in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    fn codes_from(&self, row: u64) -> Codes<'_> {
        Codes {
            words: &self.words,
            bit: row * u64::from(self.width),
            width: self.width,
            mask: u64::MAX >> (64 - self.width),
        }
    }

    /// The value id at segment-local `row`.
    pub fn id_at(&self, row: u64) -> u32 {
        debug_assert!(row < self.rows);
        if let Some(first) = self.range_first() {
            return first + row as u32;
        }
        let code = self.codes_from(row).next().expect("unbounded");
        self.ids.id(code as usize)
    }

    /// Writes the value ids of segment-local rows `from..from + out.len()`
    /// into `out`: only that window's codes are unpacked. A range has none;
    /// the selection walker reads its ids from its bounds.
    pub(crate) fn ids_into(&self, from: u64, out: &mut [u32]) {
        debug_assert!(from + out.len() as u64 <= self.rows);
        debug_assert!(self.range_first().is_none());
        let (ids, _) = self.ids.list();
        for (slot, code) in out.iter_mut().zip(self.codes_from(from)) {
            *slot = ids[code as usize];
        }
    }

    /// Appends the segment's mask of the rows whose code `hit` marks
    /// (`hit` has one entry per present id) to `out`: one unpack-and-test
    /// pass that builds the mask 63 rows at a time, no per-row push. A
    /// range has no codes; its callers build its mask from its bounds.
    pub fn append_mask(&self, hit: &[bool], out: &mut Wah) {
        debug_assert_eq!(hit.len(), self.ids.len());
        debug_assert!(self.range_first().is_none());
        let group_bits = cods_bitmap::word::GROUP_BITS;
        let mut codes = self.codes_from(0);
        let mut left = self.rows;
        while left > 0 {
            let n = left.min(group_bits);
            let mut group = 0u64;
            for (j, code) in (0..n).zip(&mut codes) {
                group |= u64::from(hit[code as usize]) << j;
            }
            out.push_bits(group, n);
            left -= n;
        }
    }

    /// The segment under `meta`, the stats of an id translation of it, where
    /// present-id position `from[i]` became position `i`. A monotone map
    /// (`from` the identity) keeps every code, so the words are shared;
    /// any other permutes the codes at the same width.
    pub(crate) fn remap(&self, meta: &SegMeta, from: &[usize]) -> PackedSegment {
        debug_assert!(self.ids.range().is_none() && !meta.is_range());
        let ids = meta.present.clone();
        if from.iter().enumerate().all(|(i, &f)| i == f) {
            return PackedSegment {
                ids,
                ..self.clone()
            };
        }
        let mut to = vec![0u64; from.len()];
        for (i, &f) in from.iter().enumerate() {
            to[f] = i as u64;
        }
        let mut p = Packer::new(self.width, self.rows);
        for code in self.codes_from(0).take(self.rows as usize) {
            p.push(to[code as usize]);
        }
        PackedSegment {
            rows: self.rows,
            width: self.width,
            ids,
            words: p.finish(),
        }
    }

    /// Recounts the stats from the codes, after checking the payload: the
    /// width and length its ids and rows give, every code below the
    /// present-id count, and no bit set past the last row's. The packed
    /// side of the one payload check ([`SegMeta::check_payload`]); a code
    /// that never occurs leaves a zero among the ones, which that check
    /// refuses. O(rows).
    pub fn recount(&self) -> Result<SegMeta, String> {
        if let Some(first) = self.range_first() {
            if !self.words.is_empty() || self.width != 0 {
                return Err("a range segment holds codes".into());
            }
            return Ok(SegMeta::range(first, self.rows));
        }
        let n = self.ids.len();
        if self.width != width_for(n) {
            return Err(format!("code width {} for {n} present ids", self.width));
        }
        if payload_len(self.rows, n) != Some(8 * self.words.len() as u64) {
            return Err(format!(
                "{} packed words for {} rows at width {}",
                self.words.len(),
                self.rows,
                self.width
            ));
        }
        let mut ones = vec![0u64; n];
        let mut runs = 0u64;
        let mut prev = u32::MAX;
        for code in self.codes_from(0).take(self.rows as usize) {
            let Some(count) = ones.get_mut(code as usize) else {
                return Err(format!("code {code} past the {n} present ids"));
            };
            *count += 1;
            runs += u64::from(code != prev);
            prev = code;
        }
        let used = (self.rows * u64::from(self.width)) % 64;
        if used != 0 && self.words.last().is_some_and(|&w| w >> used != 0) {
            return Err("padding bits set past the last row".into());
        }
        Ok(SegMeta {
            rows: self.rows,
            present: Present::List {
                ids: Arc::clone(self.ids.list().0),
                ones: ones.into(),
            },
            runs,
            bytes: 8 * self.words.len(),
            encoding: Encoding::Packed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoded::SegmentEnc;
    use crate::segment::SealScratch;

    fn packed(ids: &[u32]) -> (SegMeta, Arc<PackedSegment>) {
        let seq: RleSeq = ids.iter().copied().collect();
        let slot = SegmentEnc::seal(seq, Encoding::Packed, &mut SealScratch::default());
        match slot.enc() {
            SegmentEnc::Packed(p) => (slot.meta().clone(), p),
            _ => panic!("a packed segment"),
        }
    }

    #[test]
    fn widths_and_lengths() {
        assert_eq!(width_for(1), 1);
        assert_eq!(width_for(2), 1);
        assert_eq!(width_for(3), 2);
        assert_eq!(width_for(4), 2);
        assert_eq!(width_for(5), 3);
        assert_eq!(width_for(65_536), 16);
        assert_eq!(width_for(65_537), 17);
        assert_eq!(payload_len(1, 1), Some(8));
        assert_eq!(payload_len(64, 2), Some(8));
        assert_eq!(payload_len(65, 2), Some(16));
        assert_eq!(payload_len(65_536, 65_536), Some(131_072));
        assert_eq!(payload_len(u64::MAX, 3), None);
    }

    #[test]
    fn codes_cross_word_boundaries() {
        // 100 rows over 11 ids: width 4, no code straddles; 100 over 37
        // ids: width 6, codes straddle words.
        for k in [11u32, 37] {
            let ids: Vec<u32> = (0..100).map(|i| (i * 7 + 3) % k * 5).collect();
            let (meta, p) = packed(&ids);
            assert_eq!(meta.encoding, Encoding::Packed);
            assert_eq!(meta.bytes as u64, payload_len(100, k as usize).unwrap());
            assert_eq!(&p.recount().unwrap(), &meta);
            let mut out = vec![0; 30];
            p.ids_into(41, &mut out);
            assert_eq!(out, ids[41..71]);
            for (row, &id) in ids.iter().enumerate() {
                assert_eq!(p.id_at(row as u64), id);
            }
            let mut raw = Vec::new();
            p.encode(&mut raw);
            assert_eq!(raw.len(), p.encoded_len());
            assert_eq!(&PackedSegment::decode(&meta, &raw).unwrap(), &*p);
        }
    }

    #[test]
    fn append_mask_matches_the_rows() {
        let ids: Vec<u32> = (0..200).map(|i| i % 50).collect();
        let (meta, p) = packed(&ids);
        let hit: Vec<bool> = (0..50).map(|c| c % 7 == 0).collect();
        let mut mask = Wah::new();
        mask.append_run(true, 5); // unaligned start
        p.append_mask(&hit, &mut mask);
        let want: Vec<u64> = (0..5)
            .chain(
                ids.iter()
                    .enumerate()
                    .filter(|&(_, &id)| hit[meta.position_of(id).unwrap()])
                    .map(|(r, _)| r as u64 + 5),
            )
            .collect();
        assert_eq!(mask.to_positions(), want);
        assert_eq!(mask.len(), 205);
    }

    #[test]
    fn remap_shares_monotone_and_permutes_otherwise() {
        let (meta, p) = packed(&[3, 1, 2, 3, 1]);
        // Monotone: the words are shared.
        let m2 = SegMeta {
            present: Present::List {
                ids: [10, 20, 30].into(),
                ones: Arc::clone(meta.present.list().1),
            },
            ..meta.clone()
        };
        let r = p.remap(&m2, &[0, 1, 2]);
        assert!(Arc::ptr_eq(&r.words, &p.words));
        assert_eq!(
            (0..5).map(|i| r.id_at(i)).collect::<Vec<_>>(),
            [30, 10, 20, 30, 10]
        );
        // Reversed: old position 2 (id 3) is new position 0, and so on.
        let m3 = SegMeta {
            present: Present::List {
                ids: [5, 6, 7].into(),
                ones: [2, 1, 2].into(),
            },
            ..meta
        };
        let r = p.remap(&m3, &[2, 1, 0]);
        assert_eq!(
            (0..5).map(|i| r.id_at(i)).collect::<Vec<_>>(),
            [5, 7, 6, 5, 7]
        );
        assert_eq!(r.recount().unwrap().present, m3.present);
    }

    #[test]
    fn recount_refuses_what_the_meta_cannot_be() {
        let (meta, p) = packed(&[0, 1, 2, 1, 0]);
        let mut raw = Vec::new();
        p.encode(&mut raw);
        // Code 3 with three present ids.
        let mut bad = raw.clone();
        bad[0] |= 0b11 << 2;
        let e = PackedSegment::decode(&meta, &bad).unwrap().recount();
        assert!(e.unwrap_err().contains("past the 3 present ids"));
        // A padding bit.
        let mut bad = raw.clone();
        bad[7] |= 0x80;
        let e = PackedSegment::decode(&meta, &bad).unwrap().recount();
        assert!(e.unwrap_err().contains("padding"));
        // A wrong length.
        assert!(PackedSegment::decode(&meta, &raw[..7]).is_err());
    }
}
