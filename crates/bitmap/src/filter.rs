//! *Bitmap filtering* — the gather of the paper's decomposition (Section
//! 2.4): shrink a bitmap to the bits at a sorted list of positions,
//! producing a new compressed bitmap without decompressing the input, in
//! time linear in the compressed words plus the positions that fall inside
//! literal words (fills are taken wholesale).
//!
//! The engine does not run it: a write reads its rows through the storage
//! layer's selection walker and seals them with
//! [`encode_runs`](crate::encode_runs). [`Wah::filter_positions`] is here
//! for the benchmark's layer-1 probe and `fig3`'s ablation, which time it
//! against [`PlainBitmap::filter_positions`](crate::PlainBitmap::filter_positions).

use crate::iter::Run;
use crate::wah::{Wah, WahRef};

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
}

impl Wah {
    /// Gathers the bits at `positions` ([`WahRef::filter_positions`]).
    ///
    /// # Panics
    /// Panics if positions are decreasing or out of range.
    pub fn filter_positions(&self, positions: &[u64]) -> Wah {
        self.view().filter_positions(positions)
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
