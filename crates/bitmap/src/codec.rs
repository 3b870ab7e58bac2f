//! Binary serialization of compressed bitmaps, in two layouts, all
//! little-endian:
//!
//! * a **stream** ([`Wah::encode`] / [`Wah::decode`]) stands alone: `len:
//!   u64 | active: u64 | active_bits: u32 | word_count: u32 | words…`;
//! * a **body** ([`scan_body`]) is only the words, the active word last:
//!   how the storage engine's bitmap payload stores each present id behind
//!   a head table of word offsets. The length is the segment's row count,
//!   which fixes the active word's valid bits (`len mod 63`), and the word
//!   count is the difference of two head entries, so a body carries no
//!   header at all.
//!
//! Both decoders run every word through the same validating pass.
//!
//! [`Reader`] is the checked little-endian reader every decoder of the
//! workspace is written on — table files, the commit log, the wire and the
//! row store as much as the bitmap codecs here: a length is checked before
//! the bytes behind it are sliced, and a count read from the bytes is held
//! against what remains ([`Reader::count`]) before anything is sized from
//! it.

use crate::rle::RleSeq;
use crate::wah::{Wah, WahRef, WordScan};
use crate::word::GROUP_BITS;
use bytes::{Buf, BufMut};

/// Errors raised while decoding bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the structure was complete.
    UnexpectedEof,
    /// Bytes remained after the structure was complete.
    Trailing,
    /// A string field was not valid UTF-8.
    Utf8,
    /// An unknown discriminant byte: what it tags, and the byte.
    BadTag(&'static str, u8),
    /// The decoded structure violates an invariant.
    Corrupt(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEof => write!(f, "unexpected end of buffer"),
            CodecError::Trailing => write!(f, "trailing bytes"),
            CodecError::Utf8 => write!(f, "invalid UTF-8 in a string field"),
            CodecError::BadTag(what, b) => write!(f, "bad {what} tag 0x{b:02x}"),
            CodecError::Corrupt(msg) => write!(f, "corrupt bitmap: {msg}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A checked little-endian reader over a byte slice: the slice and a
/// position, where every read returns a `Result` and nothing panics.
#[derive(Clone, Copy, Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, at: 0 }
    }

    /// Bytes not read yet.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    /// Bytes read so far.
    #[inline]
    pub fn position(&self) -> usize {
        self.at
    }

    /// The next `n` bytes, borrowed from the buffer.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if n > self.remaining() {
            return Err(CodecError::UnexpectedEof);
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        Ok(self.take(N)?.try_into().expect("took N bytes"))
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        self.array().map(u16::from_le_bytes)
    }

    /// Reads a `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads an `i64`.
    #[inline]
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        self.array().map(i64::from_le_bytes)
    }

    /// Reads an `f64` from its raw bits.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        self.u64().map(f64::from_bits)
    }

    /// Reads a `u32` count of items that take at least `min_bytes_each`
    /// bytes each, refusing one the remaining bytes cannot hold
    /// ([`Reader::fits`]) — so the count can size an allocation.
    #[inline]
    pub fn count(&mut self, min_bytes_each: usize) -> Result<usize, CodecError> {
        let n = self.u32()? as usize;
        self.fits(n, min_bytes_each)
    }

    /// `n`, when `n` items of at least `min_bytes_each` bytes fit in the
    /// remaining bytes; the check behind [`Reader::count`], for a count
    /// read in another width.
    #[inline]
    pub fn fits(&self, n: usize, min_bytes_each: usize) -> Result<usize, CodecError> {
        match n.checked_mul(min_bytes_each) {
            Some(bytes) if bytes <= self.remaining() => Ok(n),
            _ => Err(CodecError::UnexpectedEof),
        }
    }

    /// Ends the read: every byte must have been consumed.
    #[inline]
    pub fn finish(self) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            _ => Err(CodecError::Trailing),
        }
    }
}

/// Runs `read` over the contiguous bytes of `buf` and advances `buf` past
/// what it consumed — how the `Buf`-taking decoders use a [`Reader`].
fn read_from<B: Buf, T>(
    buf: &mut B,
    read: impl FnOnce(&mut Reader<'_>) -> Result<T, CodecError>,
) -> Result<T, CodecError> {
    let mut r = Reader::new(buf.chunk());
    let out = read(&mut r)?;
    let used = r.position();
    buf.advance(used);
    Ok(out)
}

/// What one bitmap's check found ([`scan_body`]): its tail and length,
/// and the statistics its words encode — everything of the bitmap but the
/// words themselves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecodedStream {
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

/// Validates (canonical form, overflow-checked length) and counts (ones,
/// intervals) `words`, then folds in the active tail and holds the encoded
/// length to `len`: the one check under both layouts.
fn scan(
    words: &[u64],
    active: u64,
    active_bits: u32,
    len: u64,
) -> Result<DecodedStream, CodecError> {
    let corrupt = |m: &str| CodecError::Corrupt(m.into());
    let mut scan = WordScan::default();
    for &w in words {
        scan.word(w).map_err(corrupt)?;
    }
    let scan = scan.tail(active, active_bits).map_err(corrupt)?;
    if scan.len != len {
        return Err(CodecError::Corrupt(format!(
            "len mismatch: computed {}, stored {len}",
            scan.len
        )));
    }
    Ok(DecodedStream {
        active,
        active_bits,
        len,
        ones: scan.ones,
        intervals: scan.intervals,
    })
}

/// Checks one body already in memory — `body` is a bitmap's words with its
/// active word last, as a bitmap payload stores each present id — of a
/// bitmap `len` bits long: every word is validated and counted, the active
/// word may hold only its low `len mod 63` bits, and the words must encode
/// exactly `len` bits.
pub fn scan_body(body: &[u64], len: u64) -> Result<DecodedStream, CodecError> {
    let Some((&active, words)) = body.split_last() else {
        return Err(CodecError::Corrupt("an empty bitmap body".into()));
    };
    scan(words, active, (len % GROUP_BITS) as u32, len)
}

/// The words of a little-endian byte string, checked to be whole words:
/// one bulk conversion, allocating exactly what `raw` holds.
pub fn words_of(raw: &[u8]) -> Result<Vec<u64>, CodecError> {
    if !raw.len().is_multiple_of(8) {
        return Err(CodecError::Corrupt(
            "bitmap words are not a whole number of words".into(),
        ));
    }
    Ok(raw
        .chunks_exact(8)
        .map(|le| u64::from_le_bytes(le.try_into().expect("chunks of eight bytes")))
        .collect())
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
}

impl Wah {
    /// Serializes the bitmap into `buf` ([`WahRef::encode`]).
    pub fn encode<B: BufMut>(&self, buf: &mut B) {
        self.view().encode(buf)
    }

    /// Deserializes a bitmap from `buf`, validating all invariants. The
    /// stored word count must fit in the bytes that remain, so a hostile
    /// count is refused before anything is reserved.
    pub fn decode<B: Buf>(buf: &mut B) -> Result<Wah, CodecError> {
        read_from(buf, |r| {
            let len = r.u64()?;
            let active = r.u64()?;
            let active_bits = r.u32()?;
            let count = r.u32()? as usize;
            let words = words_of(r.take(r.fits(count, 8)? * 8)?)?;
            let d = scan(&words, active, active_bits, len)?;
            Ok(Wah {
                words,
                active,
                active_bits,
                len,
                ones: d.ones,
            })
        })
    }

    /// Decodes the body `raw` of a bitmap `len` bits long: its words, the
    /// active word last, little-endian ([`scan_body`]).
    pub fn decode_body(raw: &[u8], len: u64) -> Result<Wah, CodecError> {
        let mut words = words_of(raw)?;
        let d = scan_body(&words, len)?;
        words.pop();
        Ok(Wah {
            words,
            active: d.active,
            active_bits: d.active_bits,
            len,
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
        read_from(buf, |r| {
            let len = r.u64()?;
            let run_count = r.count(12)?;
            let mut seq = RleSeq::new();
            for _ in 0..run_count {
                let v = r.u32()?;
                let n = r.u64()?;
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
        })
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
        assert_eq!(buf.len(), 24 + 8 * w.words().len());
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
