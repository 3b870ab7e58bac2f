//! Iteration over compressed bitmaps: run view and set-bit iterator.

use crate::wah::{interval_starts, lsb_mask, Wah, WahRef};
use crate::word::*;

/// One maximal homogeneous piece of a bitmap, as exposed by [`RunIter`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Run {
    /// `len` consecutive copies of `bit` (`len` is a multiple of 63: a fill
    /// word's groups).
    Fill {
        /// The repeated bit value.
        bit: bool,
        /// Number of positions covered.
        len: u64,
    },
    /// A literal group: the low `len` bits of `word` (`len <= 63`).
    Literal {
        /// The literal bits, LSB-first.
        word: u64,
        /// Number of valid bits in `word`.
        len: u64,
    },
}

impl Run {
    /// Number of bit positions covered by this run.
    #[inline]
    pub(crate) fn len(&self) -> u64 {
        match *self {
            Run::Fill { len, .. } => len,
            Run::Literal { len, .. } => len,
        }
    }
}

/// Streams a bitmap as a sequence of [`Run`]s covering it exactly once, in
/// order. Fill words come out as one `Run::Fill` each; literal words as
/// `Run::Literal` of length 63; the partial tail as a final short literal.
#[derive(Clone)]
pub struct RunIter<'a> {
    words: std::slice::Iter<'a, u64>,
    active: u64,
    active_bits: u32,
    active_done: bool,
}

impl<'a> RunIter<'a> {
    pub(crate) fn new(w: WahRef<'a>) -> Self {
        RunIter {
            words: w.words.iter(),
            active: w.active,
            active_bits: w.active_bits,
            active_done: w.active_bits == 0,
        }
    }
}

impl Iterator for RunIter<'_> {
    type Item = Run;

    fn next(&mut self) -> Option<Run> {
        if let Some(&w) = self.words.next() {
            Some(if is_fill(w) {
                Run::Fill {
                    bit: fill_bit(w),
                    len: fill_groups(w) * GROUP_BITS,
                }
            } else {
                Run::Literal {
                    word: w,
                    len: GROUP_BITS,
                }
            })
        } else if !self.active_done {
            self.active_done = true;
            Some(Run::Literal {
                word: self.active,
                len: u64::from(self.active_bits),
            })
        } else {
            None
        }
    }
}

/// Iterator over the positions of set bits, cheapest-first: 1-fills are
/// enumerated arithmetically, literals by clearing trailing bits.
pub struct OnesIter<'a> {
    runs: RunIter<'a>,
    base: u64,
    /// Remaining portion of the current run.
    current: Option<Run>,
    /// Offset already consumed inside the current run.
    within: u64,
}

impl<'a> OnesIter<'a> {
    pub(crate) fn new(w: WahRef<'a>) -> Self {
        OnesIter {
            runs: RunIter::new(w),
            base: 0,
            current: None,
            within: 0,
        }
    }
}

impl Iterator for OnesIter<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        loop {
            match self.current {
                None => {
                    let run = self.runs.next()?;
                    self.current = Some(run);
                    self.within = 0;
                }
                Some(Run::Fill { bit: false, len }) | Some(Run::Literal { word: 0, len }) => {
                    self.base += len;
                    self.current = None;
                }
                Some(Run::Fill { bit: true, len }) => {
                    if self.within < len {
                        let pos = self.base + self.within;
                        self.within += 1;
                        return Some(pos);
                    }
                    self.base += len;
                    self.current = None;
                }
                Some(Run::Literal { word, len }) => {
                    let remaining = word & !lsb_mask(self.within);
                    if remaining != 0 {
                        let bit = u64::from(remaining.trailing_zeros());
                        self.within = bit + 1;
                        return Some(self.base + bit);
                    }
                    self.base += len;
                    self.current = None;
                }
            }
        }
    }
}

/// Iterator over maximal intervals of consecutive ones, as `(start, len)`.
///
/// At most one interval is ever open, and a literal's intervals are
/// yielded as they close, so the iterator holds no queue; literals are
/// stepped a run at a time (`trailing_ones` / `trailing_zeros`), never a
/// bit at a time.
pub struct IntervalIter<'a> {
    runs: RunIter<'a>,
    /// Position of the first bit not yet consumed.
    pos: u64,
    /// Interval under construction: (start, len). It always ends at `pos`.
    open: Option<(u64, u64)>,
    /// Unconsumed part of the current literal, shifted so that bit 0 sits
    /// at `pos`; bits at and above `lit_len` are zero.
    lit: u64,
    /// Number of unconsumed bits in `lit`.
    lit_len: u64,
}

impl<'a> IntervalIter<'a> {
    pub(crate) fn new(w: WahRef<'a>) -> Self {
        IntervalIter {
            runs: RunIter::new(w),
            pos: 0,
            open: None,
            lit: 0,
            lit_len: 0,
        }
    }

    /// Consumes `len` copies of `bit`; returns the interval this closes.
    #[inline]
    fn stretch(&mut self, bit: bool, len: u64) -> Option<(u64, u64)> {
        let start = self.pos;
        self.pos += len;
        if bit {
            match self.open.as_mut() {
                Some((_, l)) => *l += len,
                None => self.open = Some((start, len)),
            }
            None
        } else {
            self.open.take()
        }
    }
}

impl Iterator for IntervalIter<'_> {
    type Item = (u64, u64);

    fn next(&mut self) -> Option<(u64, u64)> {
        loop {
            if self.lit_len > 0 {
                let bit = self.lit & 1 == 1;
                let same = if bit {
                    self.lit.trailing_ones()
                } else {
                    self.lit.trailing_zeros()
                };
                // Zeros above `lit_len` belong to no run (an all-zero rest
                // reads as 64 trailing zeros); ones never reach that far.
                let n = u64::from(same).min(self.lit_len);
                self.lit >>= n; // n <= lit_len <= 63
                self.lit_len -= n;
                if let Some(done) = self.stretch(bit, n) {
                    return Some(done);
                }
                continue;
            }
            match self.runs.next() {
                None => return self.open.take(),
                Some(Run::Fill { bit, len }) => {
                    if let Some(done) = self.stretch(bit, len) {
                        return Some(done);
                    }
                }
                Some(Run::Literal { word, len }) => {
                    self.lit = word;
                    self.lit_len = len;
                }
            }
        }
    }
}

impl<'a> WahRef<'a> {
    /// Iterates the bitmap as maximal homogeneous [`Run`]s.
    pub fn iter_runs(self) -> RunIter<'a> {
        RunIter::new(self)
    }

    /// Iterates the positions of all set bits in ascending order.
    pub fn iter_ones(self) -> OnesIter<'a> {
        OnesIter::new(self)
    }

    /// Iterates maximal intervals of consecutive ones as `(start, len)`.
    pub fn iter_intervals(self) -> IntervalIter<'a> {
        IntervalIter::new(self)
    }

    /// Number of maximal intervals of consecutive ones — how many items
    /// [`WahRef::iter_intervals`] yields — a word at a time: an interval
    /// starts at every set bit whose predecessor is clear, so a literal
    /// contributes `popcount(w & !((w << 1) | carry))` with `carry` the
    /// last bit of the previous group, and a fill is O(1).
    pub fn count_intervals(self) -> u64 {
        let mut count = 0u64;
        let mut carry = 0u64;
        for &w in self.words {
            if is_fill(w) {
                let bit = u64::from(fill_bit(w));
                count += bit & !carry;
                carry = bit;
            } else {
                count += interval_starts(w, carry);
                carry = w >> (GROUP_BITS - 1);
            }
        }
        count + interval_starts(self.active & lsb_mask(u64::from(self.active_bits)), carry)
    }

    /// Writes `v` to `out[p]` for every set position `p` — the positions
    /// [`WahRef::iter_ones`] yields — a word at a time: a 1-fill is one
    /// slice `fill`, a 0-fill is skipped in O(1), and a literal (or the
    /// masked active tail) is walked set bit by set bit with
    /// `trailing_zeros`. Positions whose bit is clear are left as they were.
    ///
    /// # Panics
    /// Panics if `out` is shorter than the bitmap.
    #[inline]
    pub fn scatter(self, out: &mut [u32], v: u32) {
        assert!(
            self.len <= out.len() as u64,
            "scatter of {} bits into {} slots",
            self.len,
            out.len()
        );
        let mut at = 0usize;
        for &w in self.words {
            if is_fill(w) {
                // `len` fits `out`, so every span and offset fits `usize`.
                let span = (fill_groups(w) * GROUP_BITS) as usize;
                if fill_bit(w) {
                    out[at..at + span].fill(v);
                }
                at += span;
            } else {
                scatter_literal(&mut out[at..at + GROUP_BITS as usize], w, v);
                at += GROUP_BITS as usize;
            }
        }
        let tail_bits = u64::from(self.active_bits);
        scatter_literal(
            &mut out[at..at + tail_bits as usize],
            self.active & lsb_mask(tail_bits),
            v,
        );
    }

    /// [`WahRef::scatter`] over the positions below `out.len()`, for a
    /// window over the bitmap's first rows: it stops at the word that
    /// reaches the window's end and clips that one, so a window costs the
    /// words that cover it. A window holding the whole bitmap is
    /// [`WahRef::scatter`], whose loop checks no end.
    #[inline]
    pub fn scatter_prefix(self, out: &mut [u32], v: u32) {
        if self.len <= out.len() as u64 {
            return self.scatter(out, v);
        }
        // `end` is below `len`, so the loop returns at the word that
        // reaches it, never at the active word.
        let end = out.len();
        let mut at = 0usize;
        for &w in self.words {
            let span = if is_fill(w) {
                (fill_groups(w) * GROUP_BITS).min((end - at) as u64) as usize
            } else {
                GROUP_BITS as usize
            };
            if span >= end - at {
                let slots = &mut out[at..end];
                if !is_fill(w) {
                    scatter_literal(slots, w & lsb_mask(slots.len() as u64), v);
                } else if fill_bit(w) {
                    slots.fill(v);
                }
                return;
            }
            if !is_fill(w) {
                scatter_literal(&mut out[at..at + span], w, v);
            } else if fill_bit(w) {
                out[at..at + span].fill(v);
            }
            at += span;
        }
        scatter_literal(
            &mut out[at..end],
            self.active & lsb_mask((end - at) as u64),
            v,
        );
    }
}

/// Writes `v` to `out[i]` for every set bit `i` of `bits`.
#[inline]
fn scatter_literal(out: &mut [u32], mut bits: u64, v: u32) {
    while bits != 0 {
        out[bits.trailing_zeros() as usize] = v;
        bits &= bits - 1;
    }
}

impl Wah {
    /// Iterates the bitmap as maximal homogeneous [`Run`]s.
    pub fn iter_runs(&self) -> RunIter<'_> {
        self.view().iter_runs()
    }

    /// Iterates the positions of all set bits in ascending order.
    pub fn iter_ones(&self) -> OnesIter<'_> {
        self.view().iter_ones()
    }

    /// Iterates maximal intervals of consecutive ones as `(start, len)`.
    pub fn iter_intervals(&self) -> IntervalIter<'_> {
        self.view().iter_intervals()
    }

    /// Number of maximal intervals of consecutive ones
    /// ([`WahRef::count_intervals`]).
    pub fn count_intervals(&self) -> u64 {
        self.view().count_intervals()
    }

    /// Writes `v` to `out[p]` for every set position `p`
    /// ([`WahRef::scatter`]).
    ///
    /// # Panics
    /// Panics if `out` is shorter than the bitmap.
    pub fn scatter(&self, out: &mut [u32], v: u32) {
        self.view().scatter(out, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_cover_bitmap_exactly() {
        let mut w = Wah::new();
        w.append_run(false, 200);
        w.append_run(true, 63);
        w.push(true);
        w.push(false);
        let total: u64 = w.iter_runs().map(|r| r.len()).sum();
        assert_eq!(total, w.len());
    }

    #[test]
    fn ones_iter_matches_get() {
        let pos = vec![0u64, 1, 62, 63, 64, 125, 126, 127, 500, 501, 1000];
        let w = Wah::from_sorted_positions(pos.iter().copied(), 1001);
        assert_eq!(w.iter_ones().collect::<Vec<_>>(), pos);
    }

    #[test]
    fn ones_iter_on_dense_fill() {
        let w = Wah::ones(200);
        assert_eq!(
            w.iter_ones().collect::<Vec<_>>(),
            (0..200).collect::<Vec<_>>()
        );
    }

    #[test]
    fn ones_iter_empty_and_all_zero() {
        assert_eq!(Wah::new().iter_ones().count(), 0);
        assert_eq!(Wah::zeros(5000).iter_ones().count(), 0);
    }

    #[test]
    fn intervals_match_naive_grouping() {
        let cases: Vec<Vec<u64>> = vec![
            vec![],
            vec![0],
            vec![0, 1, 2],
            vec![5, 6, 7, 100, 101, 500],
            (0..200).collect(),
            vec![62, 63, 64, 65, 126, 127],
        ];
        for pos in cases {
            let len = pos.last().map_or(10, |&p| p + 10);
            let w = Wah::from_sorted_positions(pos.iter().copied(), len);
            let intervals: Vec<(u64, u64)> = w.iter_intervals().collect();
            // Naive grouping of consecutive positions.
            let mut expect: Vec<(u64, u64)> = Vec::new();
            for &p in &pos {
                match expect.last_mut() {
                    Some((s, l)) if *s + *l == p => *l += 1,
                    _ => expect.push((p, 1)),
                }
            }
            assert_eq!(intervals, expect, "positions {pos:?}");
            assert_eq!(w.count_intervals(), expect.len() as u64);
            let covered: u64 = intervals.iter().map(|&(_, l)| l).sum();
            assert_eq!(covered, w.count_ones());
        }
    }

    #[test]
    fn intervals_within_one_literal() {
        // 101101 → three intervals inside a single literal word.
        let w = Wah::from_bits([true, false, true, true, false, true]);
        assert_eq!(
            w.iter_intervals().collect::<Vec<_>>(),
            vec![(0, 1), (2, 2), (5, 1)]
        );
    }

    #[test]
    fn intervals_spanning_fill_and_literal() {
        let mut w = Wah::new();
        w.append_run(true, 63); // one full group fill
        w.push(true); // continues into the next literal
        w.push(false);
        w.push(true);
        assert_eq!(
            w.iter_intervals().collect::<Vec<_>>(),
            vec![(0, 64), (65, 1)]
        );
    }

    #[test]
    fn count_intervals_carries_across_words() {
        // A run of ones leaving a literal, crossing a fill, entering the
        // next literal and ending in the active tail is one interval.
        let mut w = Wah::new();
        w.append_run(false, 60);
        w.append_run(true, 3 + 63 * 4 + 5); // literal | fill | literal…
        w.append_run(false, 58);
        w.append_run(true, 10); // …| active tail
        w.check_invariants().unwrap();
        assert_eq!(w.iter_intervals().count(), 2);
        assert_eq!(w.count_intervals(), 2);
        assert_eq!(Wah::new().count_intervals(), 0);
        assert_eq!(Wah::zeros(1_000).count_intervals(), 0);
        assert_eq!(Wah::ones(1_000).count_intervals(), 1);
    }

    #[test]
    fn count_intervals_fuses_split_fills() {
        // A fill longer than one word can count is split at
        // MAX_FILL_GROUPS into adjacent same-valued fill words: still one
        // interval. (Built by hand — its length does not fit `len`, which
        // the count never reads.)
        let w = Wah {
            words: vec![make_fill(true, MAX_FILL_GROUPS), make_fill(true, 2), 0b101],
            active: 0b11,
            active_bits: 2,
            len: 0,
            ones: 0,
        };
        // fill+fill+bit 0 of the literal | bit 2 | the active tail.
        assert_eq!(w.count_intervals(), 3);
    }

    #[test]
    fn scatter_writes_the_set_positions_and_nothing_else() {
        let mut w = Wah::new();
        w.append_run(false, 70); // literal-straddling zeros, then a 0-fill
        w.append_run(true, 63 * 3 + 5); // literal | 1-fill | literal
        w.push(false);
        w.append_run(true, 2); // …| active tail
        let mut out = vec![7u32; w.len() as usize + 3];
        w.scatter(&mut out, 1);
        let ones: Vec<u64> = (0..out.len() as u64)
            .filter(|&p| out[p as usize] == 1)
            .collect();
        assert_eq!(ones, w.iter_ones().collect::<Vec<_>>());
        assert_eq!(
            out.iter().filter(|&&x| x == 7).count() as u64,
            w.count_zeros() + 3
        );
    }

    #[test]
    fn scatter_prefix_writes_the_set_positions_below_its_end() {
        let mut w = Wah::new();
        w.append_run(false, 70);
        w.append_run(true, 63 * 3 + 5);
        w.push(false);
        w.append_run(true, 2);
        let mut whole = vec![7u32; w.len() as usize];
        w.scatter(&mut whole, 1);
        for end in 0..=w.len() as usize + 2 {
            let mut out = vec![7u32; end];
            w.view().scatter_prefix(&mut out, 1);
            let want = &whole[..end.min(whole.len())];
            assert_eq!(&out[..want.len()], want, "prefix of {end}");
            assert!(out[want.len()..].iter().all(|&x| x == 7));
        }
    }

    #[test]
    #[should_panic(expected = "scatter of")]
    fn scatter_into_a_short_slice_panics() {
        Wah::ones(10).scatter(&mut [0; 9], 1);
    }
}
