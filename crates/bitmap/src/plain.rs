//! Uncompressed bit vector. Serves two purposes: a trusted oracle for
//! property-testing the WAH implementation, and the "no compression" arm of
//! the ablation benchmarks.

use crate::wah::{lsb_mask, Wah};

/// A plain, uncompressed bit vector backed by `Vec<u64>` (LSB-first within
/// each word, like the WAH literal layout).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PlainBitmap {
    words: Vec<u64>,
    len: u64,
}

impl PlainBitmap {
    /// Creates an empty bitmap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a bitmap of `len` zero bits.
    pub fn zeros(len: u64) -> Self {
        PlainBitmap {
            words: vec![0; len.div_ceil(64) as usize],
            len,
        }
    }

    /// Logical length in bits.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Returns `true` when the bitmap holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one bit.
    pub fn push(&mut self, bit: bool) {
        let word = (self.len / 64) as usize;
        if word == self.words.len() {
            self.words.push(0);
        }
        if bit {
            self.words[word] |= 1 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Reads bit `pos`.
    ///
    /// # Panics
    /// Panics if `pos >= len`.
    pub fn get(&self, pos: u64) -> bool {
        assert!(pos < self.len, "bit index {pos} out of range {}", self.len);
        (self.words[(pos / 64) as usize] >> (pos % 64)) & 1 == 1
    }

    /// Sets bit `pos` to `bit`.
    pub fn set(&mut self, pos: u64, bit: bool) {
        assert!(pos < self.len, "bit index {pos} out of range {}", self.len);
        let w = &mut self.words[(pos / 64) as usize];
        if bit {
            *w |= 1 << (pos % 64);
        } else {
            *w &= !(1 << (pos % 64));
        }
    }

    /// Number of set bits (O(words)).
    pub fn count_ones(&self) -> u64 {
        self.words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// Heap bytes used.
    pub fn size_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Positions of set bits, ascending.
    pub fn iter_ones(&self) -> impl Iterator<Item = u64> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &w)| {
            let base = i as u64 * 64;
            std::iter::successors(if w == 0 { None } else { Some(w) }, |&w| {
                let w = w & (w - 1);
                if w == 0 {
                    None
                } else {
                    Some(w)
                }
            })
            .map(move |w| base + u64::from(w.trailing_zeros()))
        })
    }

    /// Bitwise AND (lengths must match).
    pub fn and(&self, other: &PlainBitmap) -> PlainBitmap {
        self.zip(other, |a, b| a & b)
    }

    /// Bitwise OR (lengths must match).
    pub fn or(&self, other: &PlainBitmap) -> PlainBitmap {
        self.zip(other, |a, b| a | b)
    }

    /// Bitwise complement.
    pub fn not(&self) -> PlainBitmap {
        let mut out = PlainBitmap {
            words: self.words.iter().map(|&w| !w).collect(),
            len: self.len,
        };
        out.mask_tail();
        out
    }

    fn zip(&self, other: &PlainBitmap, f: impl Fn(u64, u64) -> u64) -> PlainBitmap {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        PlainBitmap {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(&a, &b)| f(a, b))
                .collect(),
            len: self.len,
        }
    }

    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= lsb_mask(tail);
            }
        }
    }

    /// Gather: output bit `j` = `self[positions[j]]` (naive per-bit version,
    /// the ablation baseline for WAH bitmap filtering).
    pub fn filter_positions(&self, positions: &[u64]) -> PlainBitmap {
        let mut out = PlainBitmap::new();
        for &p in positions {
            out.push(self.get(p));
        }
        out
    }

    /// Converts to WAH form.
    pub fn to_wah(&self) -> Wah {
        let mut w = Wah::new();
        for i in 0..self.len {
            w.push(self.get(i));
        }
        w
    }

    /// Builds from WAH form.
    pub fn from_wah(w: &Wah) -> PlainBitmap {
        let mut out = PlainBitmap::zeros(w.len());
        for p in w.iter_ones() {
            out.set(p, true);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_set() {
        let mut b = PlainBitmap::new();
        for i in 0..130 {
            b.push(i % 3 == 0);
        }
        assert_eq!(b.len(), 130);
        for i in 0..130 {
            assert_eq!(b.get(i), i % 3 == 0);
        }
        b.set(1, true);
        assert!(b.get(1));
        b.set(0, false);
        assert!(!b.get(0));
    }

    #[test]
    fn wah_round_trip() {
        let mut b = PlainBitmap::zeros(500);
        for p in [0u64, 63, 64, 127, 128, 499] {
            b.set(p, true);
        }
        let w = b.to_wah();
        assert_eq!(PlainBitmap::from_wah(&w), b);
        assert_eq!(w.count_ones(), b.count_ones());
    }

    #[test]
    fn ops_match_wah() {
        let mut a = PlainBitmap::zeros(200);
        let mut b = PlainBitmap::zeros(200);
        for i in (0..200).step_by(3) {
            a.set(i, true);
        }
        for i in (0..200).step_by(4) {
            b.set(i, true);
        }
        assert_eq!(a.and(&b).to_wah(), a.to_wah().and(&b.to_wah()));
        assert_eq!(a.or(&b).to_wah(), a.to_wah().or(&b.to_wah()));
        assert_eq!(a.not().to_wah(), a.to_wah().not());
    }

    #[test]
    fn iter_ones_matches() {
        let mut b = PlainBitmap::zeros(300);
        let pos = [0u64, 1, 63, 64, 65, 255, 299];
        for &p in &pos {
            b.set(p, true);
        }
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), pos);
    }

    #[test]
    fn not_masks_tail() {
        let b = PlainBitmap::zeros(10);
        let n = b.not();
        assert_eq!(n.count_ones(), 10);
        assert_eq!(n.len(), 10);
    }

    #[test]
    fn filter_positions_naive() {
        let mut b = PlainBitmap::zeros(100);
        b.set(10, true);
        b.set(20, true);
        let f = b.filter_positions(&[5, 10, 15, 20]);
        assert_eq!(f.len(), 4);
        assert!(!f.get(0));
        assert!(f.get(1));
        assert!(!f.get(2));
        assert!(f.get(3));
    }
}
