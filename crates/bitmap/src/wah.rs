//! The [`Wah`] compressed bitmap type and its borrowed view [`WahRef`].
//!
//! `Wah` stores a bit vector as canonical WAH words (see [`crate::word`]) plus
//! an *active* partial group for the trailing `len % 63` bits. The canonical
//! form guarantees:
//!
//! * no literal word in `words` is all-zero or all-one (those are fills),
//! * no two adjacent fill words share the same fill value,
//! * `active` only carries bits below `active_bits`, and `active_bits < 63`.
//!
//! Because the form is canonical, two `Wah` values are equal as bit vectors
//! iff they are structurally equal, so `PartialEq`/`Hash` can be derived.
//!
//! Every read-only algorithm is written once, on [`WahRef`]: the same form
//! with its words borrowed, which is what a storage segment hands out over
//! the one word arena all its bitmaps share. `Wah`'s read methods delegate
//! through [`Wah::view`].

use crate::word::*;

/// A WAH-compressed bitmap (64-bit words, 63-bit groups).
///
/// All mutating operations keep the representation canonical and maintain a
/// cached population count, so [`Wah::count_ones`] is O(1).
///
/// ```
/// use cods_bitmap::Wah;
/// let mut b = Wah::new();
/// b.append_run(false, 1_000_000);
/// b.push(true);
/// b.append_run(true, 500);
/// assert_eq!(b.len(), 1_000_501);
/// assert_eq!(b.count_ones(), 501);
/// assert!(b.get(1_000_000));
/// assert!(!b.get(999_999));
/// // Compressed size is tiny compared to the million-bit logical size.
/// assert!(b.size_bytes() < 64);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct Wah {
    /// Canonical compressed words covering complete 63-bit groups.
    pub(crate) words: Vec<u64>,
    /// Trailing partial group (LSB-first), bits `>= active_bits` are zero.
    pub(crate) active: u64,
    /// Number of valid bits in `active` (`0..63`).
    pub(crate) active_bits: u32,
    /// Total logical length in bits.
    pub(crate) len: u64,
    /// Cached number of set bits.
    pub(crate) ones: u64,
}

/// A borrowed, read-only WAH bitmap: canonical words plus the active tail
/// and the cached counts of a [`Wah`], with the words living elsewhere — in
/// a `Wah`, or in an arena shared by many bitmaps. It is `Copy`; methods
/// take it by value and return iterators that borrow only the words.
///
/// ```
/// use cods_bitmap::{Wah, WahRef};
/// let owned = Wah::from_sorted_positions([1u64, 64, 70], 100);
/// let view: WahRef<'_> = owned.view();
/// assert_eq!(view.iter_ones().collect::<Vec<_>>(), vec![1, 64, 70]);
/// assert_eq!(view.to_wah(), owned);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct WahRef<'a> {
    pub(crate) words: &'a [u64],
    pub(crate) active: u64,
    pub(crate) active_bits: u32,
    pub(crate) len: u64,
    pub(crate) ones: u64,
}

impl<'a> From<&'a Wah> for WahRef<'a> {
    fn from(w: &'a Wah) -> WahRef<'a> {
        w.view()
    }
}

impl Wah {
    /// Creates an empty bitmap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a bitmap of `len` zero bits.
    pub fn zeros(len: u64) -> Self {
        let mut w = Self::new();
        w.append_run(false, len);
        w
    }

    /// Creates a bitmap of `len` one bits.
    pub fn ones(len: u64) -> Self {
        let mut w = Self::new();
        w.append_run(true, len);
        w
    }

    /// The bitmap as a borrowed [`WahRef`], the form every read algorithm
    /// runs on.
    #[inline]
    pub fn view(&self) -> WahRef<'_> {
        WahRef {
            words: &self.words,
            active: self.active,
            active_bits: self.active_bits,
            len: self.len,
            ones: self.ones,
        }
    }

    /// Empties the bitmap, keeping its word buffer for the next build.
    pub fn clear(&mut self) {
        self.words.clear();
        self.active = 0;
        self.active_bits = 0;
        self.len = 0;
        self.ones = 0;
    }

    /// Logical length in bits.
    #[inline]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Returns `true` if the bitmap has no bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of set bits (O(1), cached).
    #[inline]
    pub fn count_ones(&self) -> u64 {
        self.ones
    }

    /// Number of clear bits.
    #[inline]
    pub fn count_zeros(&self) -> u64 {
        self.view().count_zeros()
    }

    /// Returns `true` if at least one bit is set.
    #[inline]
    pub fn any(&self) -> bool {
        self.ones > 0
    }

    /// The compressed words (without the active tail). Exposed for size
    /// accounting and serialization.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Approximate heap size of the compressed representation in bytes.
    pub fn size_bytes(&self) -> usize {
        self.view().size_bytes()
    }

    /// Number of physical 64-bit words used (including the active tail word
    /// when non-empty).
    pub fn physical_words(&self) -> usize {
        self.view().physical_words()
    }

    // ------------------------------------------------------------------
    // Canonical append primitives
    // ------------------------------------------------------------------

    /// Appends `groups` complete fill groups of value `bit`, merging with a
    /// trailing fill of the same value. Must only be called when the active
    /// tail is empty.
    pub(crate) fn push_fill(&mut self, bit: bool, mut groups: u64) {
        debug_assert_eq!(self.active_bits, 0);
        if groups == 0 {
            return;
        }
        self.len += groups * GROUP_BITS;
        self.ones += groups * fill_ones_per_group(bit);
        if let Some(last) = self.words.last_mut() {
            if is_fill(*last) && fill_bit(*last) == bit {
                let have = fill_groups(*last);
                let take = groups.min(MAX_FILL_GROUPS - have);
                *last = make_fill(bit, have + take);
                groups -= take;
            }
        }
        while groups > 0 {
            let take = groups.min(MAX_FILL_GROUPS);
            self.words.push(make_fill(bit, take));
            groups -= take;
        }
    }

    /// Appends one complete 63-bit group (canonicalizing all-zero/all-one
    /// groups into fills). Must only be called when the active tail is empty.
    pub(crate) fn push_group(&mut self, group: u64) {
        debug_assert_eq!(self.active_bits, 0);
        debug_assert_eq!(group & !LIT_MASK, 0);
        if group == 0 {
            self.push_fill(false, 1);
        } else if group == ALL_ONES_LITERAL {
            self.push_fill(true, 1);
        } else {
            self.words.push(group);
            self.len += GROUP_BITS;
            self.ones += u64::from(group.count_ones());
        }
    }

    /// Appends a single bit.
    #[inline]
    pub fn push(&mut self, bit: bool) {
        if bit {
            self.active |= 1 << self.active_bits;
        }
        self.active_bits += 1;
        self.len += 1;
        self.ones += u64::from(bit);
        if self.active_bits as u64 == GROUP_BITS {
            self.flush_active_group();
        }
    }

    /// Flushes a *complete* active group into `words`.
    fn flush_active_group(&mut self) {
        debug_assert_eq!(self.active_bits as u64, GROUP_BITS);
        let g = self.active;
        self.active = 0;
        self.active_bits = 0;
        // push_group updates len/ones again, so compensate first.
        self.len -= GROUP_BITS;
        self.ones -= u64::from(g.count_ones());
        self.push_group(g);
    }

    /// Appends `count` copies of `bit`.
    pub fn append_run(&mut self, bit: bool, mut count: u64) {
        if count == 0 {
            return;
        }
        // Top up the active partial group first.
        if self.active_bits > 0 {
            let room = GROUP_BITS - self.active_bits as u64;
            let take = count.min(room);
            if bit {
                // `take` ones starting at active_bits.
                let mask = if take == 64 {
                    u64::MAX
                } else {
                    ((1u64 << take) - 1) << self.active_bits
                };
                self.active |= mask;
                self.ones += take;
            }
            self.active_bits += take as u32;
            self.len += take;
            count -= take;
            if self.active_bits as u64 == GROUP_BITS {
                self.flush_active_group();
            }
            if count == 0 {
                return;
            }
        }
        // Whole groups as a fill.
        let groups = count / GROUP_BITS;
        self.push_fill(bit, groups);
        count -= groups * GROUP_BITS;
        // Remainder into the active tail.
        if count > 0 {
            debug_assert_eq!(self.active_bits, 0);
            if bit {
                self.active = (1u64 << count) - 1;
                self.ones += count;
            }
            self.active_bits = count as u32;
            self.len += count;
        }
    }

    /// Appends one literal group that is not aligned to a group boundary of
    /// `self` (the active tail may be non-empty). `nbits` is the number of
    /// valid bits in `group` and must be `<= 63`, and no bit of `group` at
    /// or above `nbits` may be set: the way to build a mask 63 rows at a
    /// time without a [`Wah::push`] per row.
    pub fn push_bits(&mut self, group: u64, nbits: u64) {
        debug_assert!(nbits <= GROUP_BITS);
        debug_assert_eq!(group & !lsb_mask(nbits), 0);
        if nbits == 0 {
            return;
        }
        let a = self.active_bits as u64;
        if a == 0 {
            if nbits == GROUP_BITS {
                self.push_group(group);
            } else {
                self.active = group;
                self.active_bits = nbits as u32;
                self.len += nbits;
                self.ones += u64::from(group.count_ones());
            }
            return;
        }
        let room = GROUP_BITS - a;
        if nbits < room {
            self.active |= group << a;
            self.active_bits += nbits as u32;
            self.len += nbits;
            self.ones += u64::from(group.count_ones());
        } else {
            // Complete the current group, then start a new tail.
            let low = group & lsb_mask(room);
            let complete = self.active | (low << a);
            let rest = group >> room;
            let rest_bits = nbits - room;
            self.active = 0;
            self.active_bits = 0;
            self.push_group(complete);
            // push_group accounted len/ones for the whole 63-bit group, but
            // `a` of those bits were already accounted when first pushed.
            self.len -= a;
            self.ones -= u64::from((complete & lsb_mask(a)).count_ones());
            if rest_bits > 0 {
                self.active = rest;
                self.active_bits = rest_bits as u32;
                self.len += rest_bits;
                self.ones += u64::from(rest.count_ones());
            }
        }
    }

    /// Appends all bits of `other` to `self` (concatenation). `other` is a
    /// `&Wah` or a [`WahRef`].
    ///
    /// When `self` ends on a group boundary this is a near-O(words) splice;
    /// otherwise every group of `other` is re-aligned with two shifts.
    pub fn append_bitmap<'b>(&mut self, other: impl Into<WahRef<'b>>) {
        let other = other.into();
        if self.active_bits == 0 {
            for &w in other.words {
                if is_fill(w) {
                    self.push_fill(fill_bit(w), fill_groups(w));
                } else {
                    self.push_group(w);
                }
            }
            if other.active_bits > 0 {
                self.active = other.active;
                self.active_bits = other.active_bits;
                self.len += u64::from(other.active_bits);
                self.ones += u64::from(other.active.count_ones());
            }
        } else {
            for &w in other.words {
                if is_fill(w) {
                    self.append_run(fill_bit(w), fill_groups(w) * GROUP_BITS);
                } else {
                    self.push_bits(w, GROUP_BITS);
                }
            }
            if other.active_bits > 0 {
                self.push_bits(other.active, u64::from(other.active_bits));
            }
        }
    }

    /// Concatenates two bitmaps into a new one.
    pub fn concat(&self, other: &Wah) -> Wah {
        let mut out = self.clone();
        out.append_bitmap(other);
        out
    }

    // ------------------------------------------------------------------
    // Point access
    // ------------------------------------------------------------------

    /// Reads bit `pos`. O(compressed words).
    ///
    /// # Panics
    /// Panics if `pos >= self.len()`.
    pub fn get(&self, pos: u64) -> bool {
        self.view().get(pos)
    }

    /// Number of set bits strictly before `pos`.
    pub fn rank1(&self, pos: u64) -> u64 {
        self.view().rank1(pos)
    }

    // ------------------------------------------------------------------
    // Conversions
    // ------------------------------------------------------------------

    /// Builds a `Wah` from an iterator of bits.
    pub fn from_bits<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let mut w = Self::new();
        for b in bits {
            w.push(b);
        }
        w
    }

    /// Builds a `Wah` of length `len` with ones exactly at the (strictly
    /// ascending) positions yielded by `positions`.
    ///
    /// # Panics
    /// Panics if positions are not strictly ascending or exceed `len`.
    pub fn from_sorted_positions<I: IntoIterator<Item = u64>>(positions: I, len: u64) -> Self {
        let mut w = Self::new();
        let mut next = 0u64;
        for p in positions {
            assert!(p >= next, "positions must be strictly ascending");
            assert!(p < len, "position {p} out of range {len}");
            w.append_run(false, p - next);
            w.push(true);
            next = p + 1;
        }
        w.append_run(false, len - next);
        w
    }

    /// Collects the positions of all set bits into a vector.
    pub fn to_positions(&self) -> Vec<u64> {
        self.view().to_positions()
    }

    /// Internal consistency check used by tests and debug assertions.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.view().check_invariants()
    }
}

impl<'a> WahRef<'a> {
    /// Assembles a view from its parts: `words` must be canonical (no zero
    /// or all-one literal, no two same-valued fills in a row unless the
    /// first is full), `active` must hold only its low `active_bits < 63`
    /// bits, and `len`/`ones` must be the length and population they
    /// encode — as a [`Wah`] or a validating decode
    /// ([`scan_body`](crate::codec::scan_body)) produces them.
    /// [`WahRef::check_invariants`] verifies all of it.
    #[inline]
    pub fn from_parts(
        words: &'a [u64],
        active: u64,
        active_bits: u32,
        len: u64,
        ones: u64,
    ) -> WahRef<'a> {
        WahRef {
            words,
            active,
            active_bits,
            len,
            ones,
        }
    }

    /// The view of a bitmap body as [`scan_body`](crate::codec::scan_body)
    /// validated it: `body` is its words with the active word last, `len`
    /// its length (so the active word holds `len mod 63` valid bits) and
    /// `ones` its population.
    ///
    /// # Panics
    /// Panics if `body` is empty.
    #[inline]
    pub fn from_body(body: &'a [u64], len: u64, ones: u64) -> WahRef<'a> {
        let (&active, words) = body
            .split_last()
            .expect("a bitmap body holds its active word");
        WahRef::from_parts(words, active, (len % GROUP_BITS) as u32, len, ones)
    }

    /// Copies the view into an owned [`Wah`].
    pub fn to_wah(self) -> Wah {
        Wah {
            words: self.words.to_vec(),
            active: self.active,
            active_bits: self.active_bits,
            len: self.len,
            ones: self.ones,
        }
    }

    /// Logical length in bits.
    #[inline]
    pub fn len(self) -> u64 {
        self.len
    }

    /// Returns `true` if the bitmap has no bits.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    /// Number of set bits (O(1), cached).
    #[inline]
    pub fn count_ones(self) -> u64 {
        self.ones
    }

    /// Number of clear bits.
    #[inline]
    pub fn count_zeros(self) -> u64 {
        self.len - self.ones
    }

    /// Returns `true` if at least one bit is set.
    #[inline]
    pub fn any(self) -> bool {
        self.ones > 0
    }

    /// The compressed words (without the active tail).
    #[inline]
    pub fn words(self) -> &'a [u64] {
        self.words
    }

    /// The trailing partial group (LSB-first), zero at and above
    /// [`WahRef::active_bits`].
    #[inline]
    pub fn active(self) -> u64 {
        self.active
    }

    /// Number of valid bits in [`WahRef::active`] (`0..63`).
    #[inline]
    pub fn active_bits(self) -> u32 {
        self.active_bits
    }

    /// Approximate heap size of the compressed representation in bytes:
    /// eight per word plus a fixed 24 for the tail and counts.
    pub fn size_bytes(self) -> usize {
        self.words.len() * 8 + 24
    }

    /// Number of physical 64-bit words used (including the active tail word
    /// when non-empty).
    pub fn physical_words(self) -> usize {
        self.words.len() + usize::from(self.active_bits > 0)
    }

    /// Reads bit `pos`. O(compressed words).
    ///
    /// # Panics
    /// Panics if `pos >= self.len()`.
    pub fn get(self, pos: u64) -> bool {
        assert!(pos < self.len, "bit index {pos} out of range {}", self.len);
        let mut base = 0u64;
        for &w in self.words {
            let span = if is_fill(w) {
                fill_groups(w) * GROUP_BITS
            } else {
                GROUP_BITS
            };
            if pos < base + span {
                return if is_fill(w) {
                    fill_bit(w)
                } else {
                    (w >> (pos - base)) & 1 == 1
                };
            }
            base += span;
        }
        (self.active >> (pos - base)) & 1 == 1
    }

    /// Number of set bits strictly before `pos`.
    pub fn rank1(self, pos: u64) -> u64 {
        assert!(
            pos <= self.len,
            "rank index {pos} out of range {}",
            self.len
        );
        let mut base = 0u64;
        let mut ones = 0u64;
        for &w in self.words {
            let (span, word_ones) = if is_fill(w) {
                let g = fill_groups(w);
                (g * GROUP_BITS, g * fill_ones_per_group(fill_bit(w)))
            } else {
                (GROUP_BITS, u64::from(w.count_ones()))
            };
            if pos <= base + span {
                let within = pos - base;
                return ones
                    + if is_fill(w) {
                        if fill_bit(w) {
                            within
                        } else {
                            0
                        }
                    } else {
                        u64::from((w & lsb_mask(within)).count_ones())
                    };
            }
            base += span;
            ones += word_ones;
        }
        ones + u64::from((self.active & lsb_mask(pos - base)).count_ones())
    }

    /// Collects the positions of all set bits into a vector.
    pub fn to_positions(self) -> Vec<u64> {
        self.iter_ones().collect()
    }

    /// Checks the canonical form and that `len`/`ones` are what the words
    /// and tail encode.
    pub fn check_invariants(self) -> Result<(), String> {
        let mut scan = WordScan::default();
        for &w in self.words {
            scan.word(w)?;
        }
        let scan = scan.tail(self.active, self.active_bits)?;
        if scan.len != self.len {
            return Err(format!(
                "len mismatch: computed {}, stored {}",
                scan.len, self.len
            ));
        }
        if scan.ones != self.ones {
            return Err(format!(
                "ones mismatch: computed {}, stored {}",
                scan.ones, self.ones
            ));
        }
        Ok(())
    }
}

/// One validating pass over WAH words: it accumulates the length,
/// population and interval count they encode, and rejects the first word
/// that breaks the canonical form. [`WahRef::check_invariants`] and the
/// decoders of [`crate::codec`] both run on it, so a
/// bitmap read off the disk is held to exactly the rules of one checked in
/// memory.
#[derive(Default)]
pub(crate) struct WordScan {
    pub(crate) len: u64,
    pub(crate) ones: u64,
    pub(crate) intervals: u64,
    /// The last bit of the previous word (see [`interval_starts`]).
    carry: u64,
    /// The previous word when it was a fill, else 0 (never a fill word).
    prev_fill: u64,
}

impl WordScan {
    /// Folds in one word of the compressed sequence.
    #[inline]
    pub(crate) fn word(&mut self, w: u64) -> Result<(), &'static str> {
        if is_fill(w) {
            let g = fill_groups(w);
            if g == 0 {
                return Err("empty fill word");
            }
            let p = self.prev_fill;
            if p != 0 && fill_bit(p) == fill_bit(w) && fill_groups(p) < MAX_FILL_GROUPS {
                return Err("unmerged adjacent fills");
            }
            // A fill read off the disk may claim more groups than a `u64`
            // length can count: a typed error, not an overflow. Ones never
            // exceed the length, so bounding it bounds them too.
            let len = g
                .checked_mul(GROUP_BITS)
                .and_then(|bits| self.len.checked_add(bits))
                .ok_or("fill length overflows")?;
            let bit = u64::from(fill_bit(w));
            self.ones += (len - self.len) * bit;
            self.len = len;
            self.intervals += bit & !self.carry;
            self.carry = bit;
            self.prev_fill = w;
        } else {
            if w == 0 || w == ALL_ONES_LITERAL {
                return Err("non-canonical literal");
            }
            self.len = self.len.checked_add(GROUP_BITS).ok_or("length overflows")?;
            self.ones += u64::from(w.count_ones());
            self.intervals += interval_starts(w, self.carry);
            self.carry = w >> (GROUP_BITS - 1);
            self.prev_fill = 0;
        }
        Ok(())
    }

    /// Folds in the active tail and returns the totals.
    pub(crate) fn tail(mut self, active: u64, active_bits: u32) -> Result<WordScan, &'static str> {
        if u64::from(active_bits) >= GROUP_BITS {
            return Err("active_bits out of range");
        }
        if active & !lsb_mask(u64::from(active_bits)) != 0 {
            return Err("active has bits beyond active_bits");
        }
        self.len = self
            .len
            .checked_add(u64::from(active_bits))
            .ok_or("length overflows")?;
        self.ones += u64::from(active.count_ones());
        self.intervals += interval_starts(active, self.carry);
        Ok(self)
    }
}

/// Number of maximal runs of ones that start inside the group `w`, given
/// `carry`, the bit just before it: an interval starts at every set bit
/// whose predecessor is clear.
#[inline(always)]
pub(crate) fn interval_starts(w: u64, carry: u64) -> u64 {
    u64::from((w & !((w << 1) | carry)).count_ones())
}

/// Mask with the low `n` bits set (`n <= 64`).
#[inline(always)]
pub(crate) fn lsb_mask(n: u64) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(bits: &[bool]) -> Wah {
        Wah::from_bits(bits.iter().copied())
    }

    #[test]
    fn empty() {
        let w = Wah::new();
        assert_eq!(w.len(), 0);
        assert_eq!(w.count_ones(), 0);
        assert!(w.is_empty());
        w.check_invariants().unwrap();
    }

    #[test]
    fn push_and_get_small() {
        let bits = [true, false, true, true, false];
        let w = naive(&bits);
        assert_eq!(w.len(), 5);
        assert_eq!(w.count_ones(), 3);
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(w.get(i as u64), b, "bit {i}");
        }
        w.check_invariants().unwrap();
    }

    #[test]
    fn group_boundary_exact() {
        let mut w = Wah::new();
        for i in 0..63 {
            w.push(i % 2 == 0);
        }
        assert_eq!(w.active_bits, 0);
        assert_eq!(w.words.len(), 1);
        assert_eq!(w.len(), 63);
        w.check_invariants().unwrap();
    }

    #[test]
    fn all_zero_group_becomes_fill() {
        let w = Wah::zeros(63 * 5);
        assert_eq!(w.words.len(), 1);
        assert!(is_fill(w.words[0]));
        assert!(!fill_bit(w.words[0]));
        assert_eq!(fill_groups(w.words[0]), 5);
        w.check_invariants().unwrap();
    }

    #[test]
    fn all_one_group_becomes_fill() {
        let w = Wah::ones(63 * 4 + 10);
        assert_eq!(w.words.len(), 1);
        assert!(fill_bit(w.words[0]));
        assert_eq!(w.count_ones(), 63 * 4 + 10);
        assert_eq!(w.active_bits, 10);
        w.check_invariants().unwrap();
    }

    #[test]
    fn adjacent_fills_merge() {
        let mut w = Wah::new();
        w.append_run(false, 63);
        w.append_run(false, 63 * 3);
        assert_eq!(w.words.len(), 1);
        assert_eq!(fill_groups(w.words[0]), 4);
        w.check_invariants().unwrap();
    }

    #[test]
    fn append_run_mixed() {
        let mut w = Wah::new();
        w.append_run(true, 10);
        w.append_run(false, 100);
        w.append_run(true, 63 * 10);
        w.check_invariants().unwrap();
        assert_eq!(w.len(), 10 + 100 + 630);
        assert_eq!(w.count_ones(), 10 + 630);
        assert!(w.get(0));
        assert!(w.get(9));
        assert!(!w.get(10));
        assert!(!w.get(109));
        assert!(w.get(110));
        assert!(w.get(10 + 100 + 630 - 1));
    }

    #[test]
    fn from_sorted_positions_round_trip() {
        let pos = vec![0u64, 5, 62, 63, 64, 200, 1000, 4095];
        let w = Wah::from_sorted_positions(pos.iter().copied(), 4096);
        assert_eq!(w.to_positions(), pos);
        assert_eq!(w.count_ones(), pos.len() as u64);
        w.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn from_positions_rejects_duplicates() {
        let _ = Wah::from_sorted_positions([3u64, 3], 10);
    }

    #[test]
    fn rank_counts_the_ones_before_each_position() {
        let pos = [1u64, 7, 63, 126, 127, 128, 1000, 9999];
        let w = Wah::from_sorted_positions(pos.iter().copied(), 10_000);
        for (k, &p) in pos.iter().enumerate() {
            assert_eq!(w.rank1(p), k as u64);
            assert_eq!(w.rank1(p + 1), k as u64 + 1);
        }
        assert_eq!(w.rank1(w.len()), pos.len() as u64);
    }

    #[test]
    fn concat_aligned_and_unaligned() {
        // Aligned: first ends exactly on a group boundary.
        let a = Wah::from_sorted_positions([0u64, 62], 63);
        let b = Wah::from_sorted_positions([1u64, 3], 70);
        let c = a.concat(&b);
        c.check_invariants().unwrap();
        assert_eq!(c.len(), 133);
        assert_eq!(c.to_positions(), vec![0, 62, 64, 66]);

        // Unaligned: first has a partial tail.
        let a = Wah::from_sorted_positions([0u64, 9], 10);
        let c = a.concat(&b);
        c.check_invariants().unwrap();
        assert_eq!(c.len(), 80);
        assert_eq!(c.to_positions(), vec![0, 9, 11, 13]);
    }

    #[test]
    fn concat_long_fills() {
        let a = Wah::zeros(1_000);
        let mut b = Wah::ones(2_000);
        b.push(false);
        let c = a.concat(&b);
        c.check_invariants().unwrap();
        assert_eq!(c.len(), 3_001);
        assert_eq!(c.count_ones(), 2_000);
        assert!(!c.get(999));
        assert!(c.get(1_000));
        assert!(c.get(2_999));
        assert!(!c.get(3_000));
    }

    #[test]
    fn push_bits_edge_cases() {
        let mut w = Wah::new();
        w.append_run(true, 30); // active_bits = 30
        w.push_bits(0b101, 3);
        w.check_invariants().unwrap();
        assert_eq!(w.len(), 33);
        assert!(w.get(30));
        assert!(!w.get(31));
        assert!(w.get(32));
        // Crossing the group boundary.
        w.push_bits(LIT_MASK, 63);
        w.check_invariants().unwrap();
        assert_eq!(w.len(), 96);
        for i in 33..96 {
            assert!(w.get(i), "bit {i}");
        }
    }

    #[test]
    fn huge_fills_merge_into_one_word() {
        // Two terabit-scale zero fills must merge into a single fill word;
        // the count stays far below MAX_FILL_GROUPS, so no split is needed.
        let mut w = Wah::new();
        w.push_fill(false, 1 << 40);
        w.push_fill(false, 3);
        assert_eq!(w.words.len(), 1);
        assert_eq!(fill_groups(w.words[0]), (1 << 40) + 3);
        assert_eq!(w.len(), ((1u64 << 40) + 3) * GROUP_BITS);
        w.check_invariants().unwrap();
    }

    #[test]
    fn zeros_ones_constructors() {
        for len in [0u64, 1, 62, 63, 64, 126, 1000] {
            let z = Wah::zeros(len);
            assert_eq!(z.len(), len);
            assert_eq!(z.count_ones(), 0);
            z.check_invariants().unwrap();
            let o = Wah::ones(len);
            assert_eq!(o.len(), len);
            assert_eq!(o.count_ones(), len);
            o.check_invariants().unwrap();
        }
    }

    #[test]
    fn equality_is_semantic() {
        // Same bit vector built two ways must compare equal (canonical form).
        let mut a = Wah::new();
        a.append_run(false, 200);
        a.push(true);
        let b = Wah::from_sorted_positions([200u64], 201);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let w = Wah::zeros(10);
        w.get(10);
    }
}
