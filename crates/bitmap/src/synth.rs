//! Direct synthesis of compressed bitmaps for the mergence operators
//! (Section 2.5 of the paper).
//!
//! General mergence lays the output table out clustered by join value: a join
//! value occupying rows `[offset, offset + ones)` gets a *fill-run* bitmap
//! ([`Wah::ones_run`]); an S-side attribute value repeats in consecutive
//! blocks; a T-side attribute value repeats at a fixed stride
//! ([`Wah::strided`]). All three shapes are emitted as fills and short
//! literals without touching individual rows.

use crate::wah::{Wah, WahRef};

impl Wah {
    /// Bitmap of length `len` with ones exactly in `[offset, offset + ones)`.
    ///
    /// # Panics
    /// Panics if the run exceeds `len`.
    pub fn ones_run(offset: u64, ones: u64, len: u64) -> Wah {
        assert!(
            offset.checked_add(ones).is_some_and(|e| e <= len),
            "run [{offset}, {offset}+{ones}) exceeds length {len}"
        );
        let mut w = Wah::new();
        w.append_run(false, offset);
        w.append_run(true, ones);
        w.append_run(false, len - offset - ones);
        w
    }

    /// Bitmap of length `len` with `count` ones at positions
    /// `offset, offset + stride, offset + 2*stride, …` (`stride >= 1`).
    ///
    /// This is the "non-consecutive way but with the same distance" placement
    /// the paper uses for T-side attribute values in general mergence.
    ///
    /// # Panics
    /// Panics if the last position would be `>= len` or `stride == 0`.
    pub fn strided(offset: u64, stride: u64, count: u64, len: u64) -> Wah {
        assert!(stride >= 1, "stride must be >= 1");
        if count > 0 {
            let last = offset + stride * (count - 1);
            assert!(last < len, "strided position {last} out of range {len}");
        }
        Wah::from_sorted_positions((0..count).map(|i| offset + i * stride), len)
    }

    /// Bitmap of length `len * factor` where every bit of `self` is repeated
    /// `factor` times in place ([`WahRef::repeat_each`]).
    pub fn repeat_each(&self, factor: u64) -> Wah {
        self.view().repeat_each(factor)
    }

    /// Bitmap consisting of `self` repeated `times` times back to back.
    pub fn tile(&self, times: u64) -> Wah {
        self.view().tile(times)
    }
}

impl WahRef<'_> {
    /// Bitmap of length `len * factor` where every bit of `self` is repeated
    /// `factor` times in place (`abc` → `aabbcc` for factor 2).
    pub fn repeat_each(self, factor: u64) -> Wah {
        let mut out = Wah::new();
        if factor == 0 {
            return out;
        }
        for run in self.iter_runs() {
            match run {
                crate::iter::Run::Fill { bit, len } => out.append_run(bit, len * factor),
                crate::iter::Run::Literal { word, len } => {
                    for i in 0..len {
                        out.append_run((word >> i) & 1 == 1, factor);
                    }
                }
            }
        }
        out
    }

    /// Bitmap consisting of `self` repeated `times` times back to back.
    pub fn tile(self, times: u64) -> Wah {
        let mut out = Wah::new();
        for _ in 0..times {
            out.append_bitmap(self);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ones_run_shapes() {
        let w = Wah::ones_run(10, 5, 100);
        assert_eq!(w.len(), 100);
        assert_eq!(w.count_ones(), 5);
        assert_eq!(w.first_one(), Some(10));
        assert_eq!(w.last_one(), Some(14));

        assert_eq!(Wah::ones_run(0, 0, 10).count_ones(), 0);
        assert_eq!(Wah::ones_run(0, 10, 10), Wah::ones(10));
    }

    #[test]
    #[should_panic(expected = "exceeds length")]
    fn ones_run_overflow_panics() {
        let _ = Wah::ones_run(8, 5, 10);
    }

    #[test]
    fn strided_positions() {
        let w = Wah::strided(3, 7, 5, 40);
        assert_eq!(w.to_positions(), vec![3, 10, 17, 24, 31]);
        let empty = Wah::strided(0, 1, 0, 10);
        assert_eq!(empty.count_ones(), 0);
        // stride 1 is a run
        assert_eq!(Wah::strided(2, 1, 4, 10), Wah::ones_run(2, 4, 10));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn strided_out_of_range_panics() {
        let _ = Wah::strided(5, 10, 3, 20);
    }

    #[test]
    fn repeat_each_small() {
        let w = Wah::from_bits([true, false, true]);
        let r = w.repeat_each(3);
        assert_eq!(
            r.iter_bits().collect::<Vec<_>>(),
            vec![true, true, true, false, false, false, true, true, true]
        );
        assert_eq!(w.repeat_each(0), Wah::new());
        assert_eq!(w.repeat_each(1), w);
    }

    #[test]
    fn repeat_each_fill_stays_compressed() {
        let w = Wah::ones(63 * 100);
        let r = w.repeat_each(1000);
        assert_eq!(r.len(), 63 * 100 * 1000);
        assert_eq!(r.count_ones(), r.len());
        assert!(r.words().len() <= 2);
    }

    #[test]
    fn tile_round_trip() {
        let w = Wah::from_sorted_positions([1u64, 5], 10);
        let t = w.tile(3);
        assert_eq!(t.len(), 30);
        assert_eq!(t.to_positions(), vec![1, 5, 11, 15, 21, 25]);
        assert_eq!(w.tile(0), Wah::new());
    }
}
