//! Minimal in-tree stand-in for the `bytes` crate.
//!
//! The build environment has no access to a crates registry, so this shim
//! provides exactly the subset the workspace uses: the [`Buf`] read cursor
//! (contiguous bytes and an advance — the workspace decodes through
//! `cods_bitmap::Reader`, which checks every read), the [`BufMut`] writer
//! with little-endian accessors, a cheaply cloneable [`Bytes`] handle, and
//! a growable [`BytesMut`] that freezes into one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::Range;
use std::sync::Arc;

/// Read cursor over a contiguous byte region.
pub trait Buf {
    /// The unread bytes.
    fn chunk(&self) -> &[u8];
    /// Consumes `n` bytes.
    fn advance(&mut self, n: usize);
}

impl<B: Buf + ?Sized> Buf for &mut B {
    fn chunk(&self) -> &[u8] {
        (**self).chunk()
    }
    fn advance(&mut self, n: usize) {
        (**self).advance(n)
    }
}

impl Buf for &[u8] {
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, n: usize) {
        *self = &self[n..];
    }
}

/// Write cursor appending to a byte sink.
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }
    /// Appends a little-endian `u16`.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Appends a little-endian `i64`.
    fn put_i64_le(&mut self, v: i64) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Appends a little-endian `f64`.
    fn put_f64_le(&mut self, v: f64) {
        self.put_u64_le(v.to_bits());
    }
}

impl<B: BufMut + ?Sized> BufMut for &mut B {
    fn put_slice(&mut self, src: &[u8]) {
        (**self).put_slice(src)
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }
}

/// Immutable, cheaply cloneable byte region (a view into shared storage).
#[derive(Clone, Debug, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Length of the view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Returns `true` when the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The bytes of the view.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    /// A sub-view over `range` (relative to this view).
    pub fn slice(&self, range: Range<usize>) -> Bytes {
        assert!(range.start <= range.end && range.end <= self.len());
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        let end = v.len();
        Bytes {
            data: Arc::new(v),
            start: 0,
            end,
        }
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::ops::Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Buf for Bytes {
    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }
    fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance past end");
        self.start += n;
    }
}

/// Growable byte buffer that freezes into [`Bytes`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(cap),
        }
    }

    /// Length written so far.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when nothing was written.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Converts into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_widths() {
        let mut buf = BytesMut::new();
        buf.put_u8(7);
        buf.put_u16_le(0xBEEF);
        buf.put_u32_le(0xDEAD_BEEF);
        buf.put_u64_le(u64::MAX - 1);
        buf.put_i64_le(-42);
        buf.put_f64_le(1.5);
        buf.put_slice(b"xyz");
        let mut want = vec![7];
        want.extend_from_slice(&0xBEEFu16.to_le_bytes());
        want.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        want.extend_from_slice(&(u64::MAX - 1).to_le_bytes());
        want.extend_from_slice(&(-42i64).to_le_bytes());
        want.extend_from_slice(&1.5f64.to_bits().to_le_bytes());
        want.extend_from_slice(b"xyz");
        let mut b = buf.freeze();
        assert_eq!(b.chunk(), &want[..]);
        b.advance(want.len());
        assert!(b.is_empty());
    }

    #[test]
    fn slice_is_a_view() {
        let b = Bytes::from(vec![0, 1, 2, 3, 4, 5]);
        let s = b.slice(2..5);
        assert_eq!(s.as_slice(), &[2, 3, 4]);
        let s2 = s.slice(1..2);
        assert_eq!(s2.as_slice(), &[3]);
    }

    #[test]
    #[should_panic]
    fn advance_past_end_panics() {
        let mut b = Bytes::from(vec![1]);
        b.advance(2);
    }
}
