//! Binary serialization of compressed bitmaps (used by the storage engine's
//! on-disk table format). The layout is: `len: u64 | active: u64 |
//! active_bits: u32 | word_count: u32 | words…`, all little-endian.

use crate::rle::RleSeq;
use crate::wah::Wah;
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

impl Wah {
    /// Serializes the bitmap into `buf`.
    pub fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_u64_le(self.len);
        buf.put_u64_le(self.active);
        buf.put_u32_le(self.active_bits);
        buf.put_u32_le(self.words.len() as u32);
        for &w in &self.words {
            buf.put_u64_le(w);
        }
    }

    /// Serialized size in bytes.
    pub fn encoded_len(&self) -> usize {
        8 + 8 + 4 + 4 + self.words.len() * 8
    }

    /// Deserializes a bitmap from `buf`, validating all invariants.
    pub fn decode<B: Buf>(buf: &mut B) -> Result<Wah, CodecError> {
        if buf.remaining() < 24 {
            return Err(CodecError::UnexpectedEof);
        }
        let len = buf.get_u64_le();
        let active = buf.get_u64_le();
        let active_bits = buf.get_u32_le();
        let word_count = buf.get_u32_le() as usize;
        if buf.remaining() < word_count * 8 {
            return Err(CodecError::UnexpectedEof);
        }
        let mut words = Vec::with_capacity(word_count);
        let mut ones = 0u64;
        let overflow = || CodecError::Corrupt("population count overflows".into());
        for _ in 0..word_count {
            let w = buf.get_u64_le();
            let n = if crate::word::is_fill(w) {
                crate::word::fill_groups(w)
                    .checked_mul(crate::word::fill_ones_per_group(crate::word::fill_bit(w)))
                    .ok_or_else(overflow)?
            } else {
                u64::from(w.count_ones())
            };
            ones = ones.checked_add(n).ok_or_else(overflow)?;
            words.push(w);
        }
        ones = ones
            .checked_add(u64::from(active.count_ones()))
            .ok_or_else(overflow)?;
        let wah = Wah {
            words,
            active,
            active_bits,
            len,
            ones,
        };
        wah.check_invariants().map_err(CodecError::Corrupt)?;
        Ok(wah)
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
