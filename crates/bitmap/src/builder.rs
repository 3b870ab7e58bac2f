//! Incremental builders used when a column's bitmaps are produced by a single
//! sequential pass over rows (the CODS mergence algorithms and column loads).

use crate::wah::Wah;

/// Builds a bitmap by being told only where the ones are, in ascending order.
/// Zero gaps are appended as runs, so the construction cost is proportional
/// to the number of ones plus the number of compressed words — never to the
/// number of rows.
///
/// ```
/// use cods_bitmap::OneStreamBuilder;
/// let mut b = OneStreamBuilder::new();
/// b.push_one(10);
/// b.push_one(1_000_000);
/// let bitmap = b.finish(2_000_000);
/// assert_eq!(bitmap.count_ones(), 2);
/// assert!(bitmap.get(1_000_000));
/// ```
#[derive(Clone, Debug, Default)]
pub struct OneStreamBuilder {
    wah: Wah,
    next_row: u64,
}

impl OneStreamBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a set bit at `row`. Rows must be pushed in strictly ascending
    /// order.
    ///
    /// # Panics
    /// Panics if `row` is not beyond every previously pushed row.
    #[inline]
    pub fn push_one(&mut self, row: u64) {
        assert!(
            row >= self.next_row,
            "rows must be strictly ascending: got {row} after {}",
            self.next_row
        );
        self.wah.append_run(false, row - self.next_row);
        self.wah.push(true);
        self.next_row = row + 1;
    }

    /// Records `count` consecutive set bits starting at `row`.
    #[inline]
    pub fn push_run(&mut self, row: u64, count: u64) {
        assert!(row >= self.next_row, "rows must be strictly ascending");
        self.wah.append_run(false, row - self.next_row);
        self.wah.append_run(true, count);
        self.next_row = row + count;
    }

    /// Number of ones recorded so far.
    pub fn ones(&self) -> u64 {
        self.wah.count_ones()
    }

    /// Highest row index that may still be pushed plus zero (i.e. the next
    /// admissible row).
    pub fn next_row(&self) -> u64 {
        self.next_row
    }

    /// Pads with zeros up to total length `len` and returns the bitmap.
    ///
    /// # Panics
    /// Panics if `len` is smaller than the last pushed row + 1.
    pub fn finish(mut self, len: u64) -> Wah {
        assert!(
            len >= self.next_row,
            "finish length {len} shorter than pushed rows ({})",
            self.next_row
        );
        self.wah.append_run(false, len - self.next_row);
        self.wah
    }
}

/// Builds one bitmap per value id from a stream of `(row, value_id)` pairs in
/// ascending row order — the single-pass construction used whenever CODS
/// materializes a changed column. Rows not mentioned are zero in every
/// bitmap (useful for nullable columns).
#[derive(Clone, Debug)]
pub struct ValueStreamBuilder {
    builders: Vec<OneStreamBuilder>,
    rows_seen: u64,
}

impl ValueStreamBuilder {
    /// Creates a builder for `num_values` distinct value ids.
    pub fn new(num_values: usize) -> Self {
        ValueStreamBuilder {
            builders: vec![OneStreamBuilder::new(); num_values],
            rows_seen: 0,
        }
    }

    /// Number of value slots.
    pub fn num_values(&self) -> usize {
        self.builders.len()
    }

    /// Appends the next row carrying value `value_id`. Rows are implicit and
    /// sequential: the first call is row 0, the second row 1, and so on.
    ///
    /// # Panics
    /// Panics if `value_id` is out of range.
    #[inline]
    pub fn push_row(&mut self, value_id: usize) {
        self.builders[value_id].push_one(self.rows_seen);
        self.rows_seen += 1;
    }

    /// Rows appended so far.
    pub fn rows(&self) -> u64 {
        self.rows_seen
    }

    /// Finishes all bitmaps at the current row count.
    pub fn finish(self) -> Vec<Wah> {
        let rows = self.rows_seen;
        self.builders.into_iter().map(|b| b.finish(rows)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_stream_matches_from_positions() {
        let pos = vec![0u64, 63, 64, 1000, 99_999];
        let mut b = OneStreamBuilder::new();
        for &p in &pos {
            b.push_one(p);
        }
        assert_eq!(b.ones(), pos.len() as u64);
        let w = b.finish(100_000);
        assert_eq!(w, Wah::from_sorted_positions(pos.into_iter(), 100_000));
    }

    #[test]
    fn one_stream_push_run() {
        let mut b = OneStreamBuilder::new();
        b.push_run(10, 5);
        b.push_run(100, 63);
        let w = b.finish(200);
        assert_eq!(w.count_ones(), 68);
        assert_eq!(w, Wah::from_sorted_positions((10..15).chain(100..163), 200));
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn one_stream_rejects_regression() {
        let mut b = OneStreamBuilder::new();
        b.push_one(5);
        b.push_one(5);
    }

    #[test]
    #[should_panic(expected = "shorter than pushed rows")]
    fn one_stream_rejects_short_finish() {
        let mut b = OneStreamBuilder::new();
        b.push_one(10);
        let _ = b.finish(5);
    }

    #[test]
    fn value_stream_partitions_rows() {
        let ids = [0usize, 1, 0, 2, 1, 1, 0];
        let mut b = ValueStreamBuilder::new(3);
        for &id in &ids {
            b.push_row(id);
        }
        let maps = b.finish();
        assert_eq!(maps.len(), 3);
        for (row, &id) in ids.iter().enumerate() {
            for (v, m) in maps.iter().enumerate() {
                assert_eq!(m.get(row as u64), v == id, "row {row} value {v}");
            }
        }
        // Exactly one bitmap is set per row (partition invariant).
        let total: u64 = maps.iter().map(|m| m.count_ones()).sum();
        assert_eq!(total, ids.len() as u64);
    }
}
