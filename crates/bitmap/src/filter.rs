//! *Bitmap filtering* — the gather primitive of the CODS decomposition
//! (Section 2.4 of the paper): shrink a bitmap by keeping only the bits at a
//! given list of positions, producing a new compressed bitmap directly,
//! without decompressing either input.
//!
//! Two drivers are provided: a sorted position list
//! ([`WahRef::filter_positions`]) and a selection mask
//! ([`WahRef::filter_bitmap`]), plus range extraction ([`WahRef::slice`]). All run in time linear in the number of compressed words
//! plus the number of selected positions that fall inside literal words —
//! fills are processed wholesale.

use crate::iter::{Run, RunIter};
use crate::wah::{lsb_mask, Wah, WahRef};

/// Cursor over a bitmap's runs that can hand out arbitrary-length chunks,
/// splitting runs as needed.
pub(crate) struct RunCursor<'a> {
    iter: RunIter<'a>,
    cur: Option<Run>,
    /// Bits of `cur` already consumed.
    off: u64,
}

impl<'a> RunCursor<'a> {
    pub(crate) fn new(w: WahRef<'a>) -> Self {
        RunCursor {
            iter: w.iter_runs(),
            cur: None,
            off: 0,
        }
    }

    /// Remaining length of the current run, loading the next run if needed.
    /// Returns 0 at end of bitmap.
    pub(crate) fn remaining(&mut self) -> u64 {
        loop {
            match self.cur {
                Some(r) => {
                    let rem = r.len() - self.off;
                    if rem > 0 {
                        return rem;
                    }
                    self.cur = None;
                    self.off = 0;
                }
                None => match self.iter.next() {
                    Some(r) => {
                        self.cur = Some(r);
                        self.off = 0;
                    }
                    None => return 0,
                },
            }
        }
    }

    /// Takes a chunk of exactly `n` bits from the current run
    /// (`n <= self.remaining()`, and for literal runs `n` stays within the
    /// 63-bit word).
    pub(crate) fn take(&mut self, n: u64) -> Run {
        let r = self.cur.expect("take called with no current run");
        debug_assert!(n <= r.len() - self.off);
        let out = match r {
            Run::Fill { bit, .. } => Run::Fill { bit, len: n },
            Run::Literal { word, .. } => Run::Literal {
                word: (word >> self.off) & lsb_mask(n),
                len: n,
            },
        };
        self.off += n;
        out
    }

    /// Skips `n` bits (may span runs).
    pub(crate) fn skip(&mut self, mut n: u64) {
        while n > 0 {
            let rem = self.remaining();
            assert!(rem > 0, "skip past end of bitmap");
            let take = rem.min(n);
            self.off += take;
            n -= take;
        }
    }
}

/// Appends a chunk to an output bitmap.
fn append_chunk(out: &mut Wah, chunk: Run) {
    match chunk {
        Run::Fill { bit, len } => out.append_run(bit, len),
        Run::Literal { word, len } => out.push_bits(word, len),
    }
}

impl WahRef<'_> {
    /// Gathers the bits at `positions` (non-decreasing, each `< self.len()`)
    /// into a new bitmap of length `positions.len()`.
    ///
    /// This is the paper's "bitmap filtering" step: given the *distinction*
    /// position list of a decomposition, each affected column bitmap is shrunk
    /// to the selected rows. Runs of the input are translated to runs of the
    /// output without per-bit work.
    ///
    /// ```
    /// use cods_bitmap::Wah;
    /// let b = Wah::from_sorted_positions([2u64, 5, 9].into_iter(), 12);
    /// let f = b.view().filter_positions(&[0, 2, 5, 9, 11]);
    /// assert_eq!(f.len(), 5);
    /// assert_eq!(f.to_positions(), vec![1, 2, 3]); // bits at 2, 5, 9 were set
    /// ```
    ///
    /// # Panics
    /// Panics if positions are decreasing or out of range.
    pub fn filter_positions(self, positions: &[u64]) -> Wah {
        let mut out = Wah::new();
        let n = positions.len();
        let mut idx = 0usize;
        let mut base = 0u64;
        for run in self.iter_runs() {
            if idx == n {
                break;
            }
            let end = base + run.len();
            match run {
                Run::Fill { bit, .. } => {
                    let start = idx;
                    while idx < n && positions[idx] < end {
                        debug_assert!(positions[idx] >= base, "positions must be sorted");
                        idx += 1;
                    }
                    out.append_run(bit, (idx - start) as u64);
                }
                Run::Literal { word, .. } => {
                    while idx < n && positions[idx] < end {
                        debug_assert!(positions[idx] >= base, "positions must be sorted");
                        out.push((word >> (positions[idx] - base)) & 1 == 1);
                        idx += 1;
                    }
                }
            }
            base = end;
        }
        assert!(
            idx == n,
            "position {} out of range (bitmap length {})",
            positions[idx],
            self.len()
        );
        out
    }

    /// Gathers the bits of `self` at the set positions of `mask` into a new
    /// bitmap of length `mask.count_ones()`. Equivalent to
    /// `self.filter_positions(&mask.to_positions())` but never materializes
    /// the position list; both bitmaps are co-walked run by run.
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn filter_bitmap(self, mask: WahRef<'_>) -> Wah {
        assert_eq!(
            self.len(),
            mask.len(),
            "filter_bitmap length mismatch: {} vs {}",
            self.len(),
            mask.len()
        );
        let mut out = Wah::new();
        let mut data = RunCursor::new(self);
        let mut sel = RunCursor::new(mask);
        loop {
            let m_rem = sel.remaining();
            if m_rem == 0 {
                break;
            }
            let d_rem = data.remaining();
            debug_assert!(d_rem > 0);
            let n = m_rem.min(d_rem);
            let m_chunk = sel.take(n);
            match m_chunk {
                Run::Fill { bit: false, .. } => data.skip(n),
                Run::Fill { bit: true, .. } => {
                    let d_chunk = data.take(n);
                    append_chunk(&mut out, d_chunk);
                }
                Run::Literal { word: m_word, .. } => {
                    let d_chunk = data.take(n);
                    match d_chunk {
                        Run::Fill { bit, .. } => {
                            out.append_run(bit, u64::from(m_word.count_ones()));
                        }
                        Run::Literal { word: d_word, .. } => {
                            // Gather bits of d_word at set positions of m_word.
                            let mut m = m_word;
                            while m != 0 {
                                let b = m.trailing_zeros();
                                out.push((d_word >> b) & 1 == 1);
                                m &= m - 1;
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Extracts the bit range `[start, end)` as a new bitmap.
    ///
    /// # Panics
    /// Panics if `start > end` or `end > self.len()`.
    pub fn slice(self, start: u64, end: u64) -> Wah {
        assert!(start <= end && end <= self.len(), "invalid slice range");
        let mut out = Wah::new();
        let mut cur = RunCursor::new(self);
        cur.skip(start);
        let mut remaining = end - start;
        while remaining > 0 {
            let rem = cur.remaining();
            debug_assert!(rem > 0);
            let n = rem.min(remaining);
            let chunk = cur.take(n);
            append_chunk(&mut out, chunk);
            remaining -= n;
        }
        out
    }
}

impl Wah {
    /// Gathers the bits at `positions` ([`WahRef::filter_positions`]).
    ///
    /// # Panics
    /// Panics if positions are decreasing or out of range.
    pub fn filter_positions(&self, positions: &[u64]) -> Wah {
        self.view().filter_positions(positions)
    }

    /// Gathers the bits of `self` at the set positions of `mask`
    /// ([`WahRef::filter_bitmap`]).
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn filter_bitmap(&self, mask: &Wah) -> Wah {
        self.view().filter_bitmap(mask.view())
    }

    /// Extracts the bit range `[start, end)` as a new bitmap
    /// ([`WahRef::slice`]).
    ///
    /// # Panics
    /// Panics if `start > end` or `end > self.len()`.
    pub fn slice(&self, start: u64, end: u64) -> Wah {
        self.view().slice(start, end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Wah {
        // zeros [0,100), ones [100,300), pattern [300,363), zeros to 1000.
        let mut w = Wah::new();
        w.append_run(false, 100);
        w.append_run(true, 200);
        for i in 0..63u64 {
            w.push(i % 2 == 0);
        }
        w.append_run(false, 1000 - 363);
        w
    }

    #[test]
    fn filter_positions_matches_get() {
        let w = sample();
        let positions: Vec<u64> = (0..1000).step_by(7).collect();
        let f = w.filter_positions(&positions);
        f.check_invariants().unwrap();
        assert_eq!(f.len(), positions.len() as u64);
        for (j, &p) in positions.iter().enumerate() {
            assert_eq!(f.get(j as u64), w.get(p), "position {p}");
        }
    }

    #[test]
    fn filter_positions_empty_list() {
        let f = sample().filter_positions(&[]);
        assert!(f.is_empty());
    }

    #[test]
    fn filter_positions_all() {
        let w = sample();
        let all: Vec<u64> = (0..w.len()).collect();
        assert_eq!(w.filter_positions(&all), w);
    }

    #[test]
    fn filter_positions_allows_duplicates() {
        let w = Wah::from_sorted_positions([5u64], 10);
        let f = w.filter_positions(&[5, 5, 5]);
        assert_eq!(f.len(), 3);
        assert_eq!(f.count_ones(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn filter_positions_out_of_range() {
        let _ = sample().filter_positions(&[999, 1000]);
    }

    #[test]
    fn filter_bitmap_equals_filter_positions() {
        let w = sample();
        let positions: Vec<u64> = (0..1000).step_by(3).collect();
        let mask = Wah::from_sorted_positions(positions.iter().copied(), 1000);
        assert_eq!(w.filter_bitmap(&mask), w.filter_positions(&positions));
    }

    #[test]
    fn filter_bitmap_with_fill_masks() {
        let w = sample();
        // All-ones mask is identity.
        assert_eq!(w.filter_bitmap(&Wah::ones(1000)), w);
        // All-zeros mask is empty.
        assert!(w.filter_bitmap(&Wah::zeros(1000)).is_empty());
        // Half mask keeps exactly the second half.
        let mut half = Wah::zeros(500);
        half.append_run(true, 500);
        assert_eq!(w.filter_bitmap(&half), w.slice(500, 1000));
    }

    #[test]
    fn slice_matches_get() {
        let w = sample();
        for (s, e) in [
            (0u64, 0u64),
            (0, 1000),
            (50, 150),
            (99, 101),
            (300, 363),
            (363, 364),
        ] {
            let sl = w.slice(s, e);
            sl.check_invariants().unwrap();
            assert_eq!(sl.len(), e - s);
            for i in 0..(e - s) {
                assert_eq!(sl.get(i), w.get(s + i), "slice ({s},{e}) bit {i}");
            }
        }
    }

    #[test]
    fn slice_then_concat_is_identity() {
        let w = sample();
        let a = w.slice(0, 400);
        let b = w.slice(400, 1000);
        assert_eq!(a.concat(&b), w);
    }

    #[test]
    #[should_panic(expected = "invalid slice range")]
    fn slice_bad_range_panics() {
        let _ = sample().slice(5, 4);
    }

    #[test]
    fn filter_preserves_compression() {
        // Filtering a long 1-fill with a long dense position range must stay
        // compressed (runs in → runs out, no per-bit blowup).
        let w = Wah::ones(63 * 10_000);
        let positions: Vec<u64> = (0..63 * 10_000).step_by(2).collect();
        let f = w.filter_positions(&positions);
        assert!(
            f.words().len() <= 2,
            "expected pure fill, got {} words",
            f.words().len()
        );
        assert_eq!(f.count_ones(), f.len());
    }
}
