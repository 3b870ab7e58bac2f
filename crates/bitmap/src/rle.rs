//! Run-length encoding of value-id sequences.
//!
//! The paper (Section 2.2) notes that sorted columns are sometimes stored
//! run-length encoded instead of bitmap encoded. `RleSeq` is that encoding:
//! a sequence of `(value_id, run_length)` pairs, kept maximal: an appended
//! run merges with an equal trailing one. The CODS storage engine uses it
//! for clustered/sorted segments, and as the form every segment it writes
//! is sealed from.

/// A run-length encoded sequence of `u32` value ids.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RleSeq {
    runs: Vec<(u32, u64)>,
    len: u64,
}

impl RleSeq {
    /// Creates an empty sequence.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total number of entries.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Returns `true` when the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of runs (compressed size).
    pub fn num_runs(&self) -> usize {
        self.runs.len()
    }

    /// Heap bytes used by the compressed form.
    pub fn size_bytes(&self) -> usize {
        self.runs.len() * std::mem::size_of::<(u32, u64)>()
    }

    /// The raw runs.
    pub fn runs(&self) -> &[(u32, u64)] {
        &self.runs
    }

    /// Appends `count` copies of `value`, merging with the trailing run.
    pub fn append_run(&mut self, value: u32, count: u64) {
        if count == 0 {
            return;
        }
        self.len += count;
        if let Some(last) = self.runs.last_mut() {
            if last.0 == value {
                last.1 += count;
                return;
            }
        }
        self.runs.push((value, count));
    }

    /// Appends a single value.
    pub fn push(&mut self, value: u32) {
        self.append_run(value, 1);
    }

    /// Reads entry `pos` (O(runs); use iteration for bulk access).
    ///
    /// # Panics
    /// Panics if `pos >= len`.
    pub fn get(&self, pos: u64) -> u32 {
        assert!(pos < self.len, "index {pos} out of range {}", self.len);
        let mut base = 0;
        for &(v, n) in &self.runs {
            if pos < base + n {
                return v;
            }
            base += n;
        }
        unreachable!()
    }

    /// Iterates all entries, decompressing.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.runs.iter().flat_map(|&(v, n)| (0..n).map(move |_| v))
    }

    /// Iterates `(value, run_start, run_len)` triples.
    pub fn iter_runs(&self) -> impl Iterator<Item = (u32, u64, u64)> + '_ {
        let mut base = 0u64;
        self.runs.iter().map(move |&(v, n)| {
            let start = base;
            base += n;
            (v, start, n)
        })
    }
}

impl FromIterator<u32> for RleSeq {
    fn from_iter<T: IntoIterator<Item = u32>>(iter: T) -> Self {
        let mut s = RleSeq::new();
        for v in iter {
            s.push(v);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_merges_runs() {
        let mut s = RleSeq::new();
        s.append_run(1, 5);
        s.append_run(1, 3);
        s.append_run(2, 1);
        assert_eq!(s.num_runs(), 2);
        assert_eq!(s.len(), 9);
        assert_eq!(s.get(7), 1);
        assert_eq!(s.get(8), 2);
    }

    #[test]
    fn round_trip_via_iter() {
        let vals = vec![3u32, 3, 3, 1, 2, 2, 3];
        let s: RleSeq = vals.iter().copied().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), vals);
        assert_eq!(s.num_runs(), 4);
    }

    #[test]
    fn iter_runs_offsets() {
        let s: RleSeq = [5u32, 5, 7, 7, 7, 5].into_iter().collect();
        let runs: Vec<_> = s.iter_runs().collect();
        assert_eq!(runs, vec![(5, 0, 2), (7, 2, 3), (5, 5, 1)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range() {
        let s: RleSeq = [1u32].into_iter().collect();
        s.get(1);
    }
}
