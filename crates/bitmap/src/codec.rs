//! Binary serialization of compressed bitmaps (used by the storage engine's
//! on-disk table format). The layout is: `len: u64 | active: u64 |
//! active_bits: u32 | word_count: u32 | words…`, all little-endian.
//!
//! One decoder, [`decode_words`], reads that layout for both
//! [`Wah::decode`] and the storage engine, which decodes a segment's
//! back-to-back streams straight into one shared word arena.

use crate::rle::RleSeq;
use crate::wah::{Wah, WahRef, WordScan};
use bytes::{Buf, BufMut};

/// Errors raised while decoding a serialized bitmap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the structure was complete.
    UnexpectedEof,
    /// The decoded structure violates a WAH invariant.
    Corrupt(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of buffer"),
            CodecError::Corrupt(msg) => write!(f, "corrupt bitmap: {msg}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// The header of one stream [`decode_words`] read, and the statistics its
/// words encode — everything of the bitmap but the words themselves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecodedStream {
    /// Number of words appended.
    pub words: usize,
    /// The trailing partial group.
    pub active: u64,
    /// Valid bits in `active` (`0..63`).
    pub active_bits: u32,
    /// Logical length in bits.
    pub len: u64,
    /// Set bits.
    pub ones: u64,
    /// Maximal intervals of consecutive ones
    /// ([`WahRef::count_intervals`]).
    pub intervals: u64,
}

/// Decodes one serialized bitmap from the front of `buf` in one pass,
/// appending its words to `words`: each word is validated (canonical form,
/// overflow-checked length) and counted (ones, intervals) as it is copied,
/// and the tail and stored length are checked at the end. Nothing is
/// allocated when `words` already has room.
///
/// `keep` is the number of bytes the caller still needs behind this
/// stream; the stored word count must fit in what remains before it, so a
/// hostile count is refused before anything is reserved. The words are read
/// from [`Buf::chunk`], which must hold them contiguously, as every buffer
/// of this workspace does.
pub fn decode_words<B: Buf>(
    buf: &mut B,
    words: &mut Vec<u64>,
    keep: usize,
) -> Result<DecodedStream, CodecError> {
    let room = buf
        .remaining()
        .checked_sub(keep)
        .and_then(|n| n.checked_sub(24))
        .ok_or(CodecError::UnexpectedEof)?;
    let len = buf.get_u64_le();
    let active = buf.get_u64_le();
    let active_bits = buf.get_u32_le();
    let count = buf.get_u32_le() as usize;
    let bytes = count
        .checked_mul(8)
        .filter(|&n| n <= room)
        .ok_or(CodecError::UnexpectedEof)?;
    let corrupt = |m: &str| CodecError::Corrupt(m.into());
    words.reserve_exact(count);
    let mut scan = WordScan::default();
    for le in buf.chunk()[..bytes].chunks_exact(8) {
        let w = u64::from_le_bytes(le.try_into().expect("chunks of eight bytes"));
        scan.word(w).map_err(corrupt)?;
        words.push(w);
    }
    buf.advance(bytes);
    let scan = scan.tail(active, active_bits).map_err(corrupt)?;
    if scan.len != len {
        return Err(CodecError::Corrupt(format!(
            "len mismatch: computed {}, stored {len}",
            scan.len
        )));
    }
    Ok(DecodedStream {
        words: count,
        active,
        active_bits,
        len,
        ones: scan.ones,
        intervals: scan.intervals,
    })
}

impl WahRef<'_> {
    /// Serializes the bitmap into `buf`.
    pub fn encode<B: BufMut>(self, buf: &mut B) {
        buf.put_u64_le(self.len);
        buf.put_u64_le(self.active);
        buf.put_u32_le(self.active_bits);
        buf.put_u32_le(self.words.len() as u32);
        for &w in self.words {
            buf.put_u64_le(w);
        }
    }

    /// Serialized size in bytes.
    pub fn encoded_len(self) -> usize {
        8 + 8 + 4 + 4 + self.words.len() * 8
    }
}

impl Wah {
    /// Serializes the bitmap into `buf` ([`WahRef::encode`]).
    pub fn encode<B: BufMut>(&self, buf: &mut B) {
        self.view().encode(buf)
    }

    /// Serialized size in bytes.
    pub fn encoded_len(&self) -> usize {
        self.view().encoded_len()
    }

    /// Deserializes a bitmap from `buf`, validating all invariants
    /// ([`decode_words`]).
    pub fn decode<B: Buf>(buf: &mut B) -> Result<Wah, CodecError> {
        let mut words = Vec::new();
        let d = decode_words(buf, &mut words, 0)?;
        Ok(Wah {
            words,
            active: d.active,
            active_bits: d.active_bits,
            len: d.len,
            ones: d.ones,
        })
    }
}

impl RleSeq {
    /// Serializes the sequence into `buf` as
    /// `len: u64 | run_count: u32 | (value: u32, count: u64)…`.
    pub fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_u64_le(self.len());
        buf.put_u32_le(self.runs().len() as u32);
        for &(v, n) in self.runs() {
            buf.put_u32_le(v);
            buf.put_u64_le(n);
        }
    }

    /// Serialized size in bytes.
    pub fn encoded_len(&self) -> usize {
        8 + 4 + self.runs().len() * 12
    }

    /// Deserializes a sequence from `buf`.
    pub fn decode<B: Buf>(buf: &mut B) -> Result<RleSeq, CodecError> {
        if buf.remaining() < 12 {
            return Err(CodecError::UnexpectedEof);
        }
        let len = buf.get_u64_le();
        let run_count = buf.get_u32_le() as usize;
        if buf.remaining() < run_count * 12 {
            return Err(CodecError::UnexpectedEof);
        }
        let mut seq = RleSeq::new();
        for _ in 0..run_count {
            let v = buf.get_u32_le();
            let n = buf.get_u64_le();
            if n == 0 {
                return Err(CodecError::Corrupt("zero-length run".into()));
            }
            if seq.len().checked_add(n).is_none() {
                return Err(CodecError::Corrupt("run lengths overflow".into()));
            }
            seq.append_run(v, n);
        }
        if seq.len() != len {
            return Err(CodecError::Corrupt(format!(
                "length mismatch: header {len}, runs {}",
                seq.len()
            )));
        }
        Ok(seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    #[test]
    fn wah_round_trip() {
        let mut w = Wah::new();
        w.append_run(false, 1000);
        w.append_run(true, 63 * 5);
        w.push(true);
        w.push(false);
        let mut buf = BytesMut::new();
        w.encode(&mut buf);
        assert_eq!(buf.len(), w.encoded_len());
        let mut slice = buf.freeze();
        let back = Wah::decode(&mut slice).unwrap();
        assert_eq!(back, w);
    }

    #[test]
    fn wah_empty_round_trip() {
        let w = Wah::new();
        let mut buf = BytesMut::new();
        w.encode(&mut buf);
        let back = Wah::decode(&mut buf.freeze()).unwrap();
        assert_eq!(back, w);
    }

    #[test]
    fn wah_truncated_fails() {
        let w = Wah::ones(1000);
        let mut buf = BytesMut::new();
        w.encode(&mut buf);
        let truncated = buf.freeze().slice(0..10);
        assert_eq!(
            Wah::decode(&mut truncated.clone()),
            Err(CodecError::UnexpectedEof)
        );
    }

    #[test]
    fn wah_corrupt_fails() {
        // A length header inconsistent with the words must be rejected.
        let mut buf = BytesMut::new();
        buf.put_u64_le(999); // wrong len
        buf.put_u64_le(0);
        buf.put_u32_le(0);
        buf.put_u32_le(0);
        assert!(matches!(
            Wah::decode(&mut buf.freeze()),
            Err(CodecError::Corrupt(_))
        ));
    }

    #[test]
    fn rle_round_trip() {
        let s: RleSeq = [1u32, 1, 1, 2, 3, 3].into_iter().collect();
        let mut buf = BytesMut::new();
        s.encode(&mut buf);
        assert_eq!(buf.len(), s.encoded_len());
        let back = RleSeq::decode(&mut buf.freeze()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn rle_rejects_zero_run() {
        let mut buf = BytesMut::new();
        buf.put_u64_le(0);
        buf.put_u32_le(1);
        buf.put_u32_le(7);
        buf.put_u64_le(0); // zero-length run
        assert!(matches!(
            RleSeq::decode(&mut buf.freeze()),
            Err(CodecError::Corrupt(_))
        ));
    }
}
