//! Segment-bounded helpers: splitting a bitmap into fixed-size row-range
//! chunks and reassembling chunks into one bitmap. These are the kernel
//! primitives under the column store's segmented layout — `split_into` is a
//! single pass over the compressed runs (fills are cut arithmetically, so a
//! terabit fill splits in O(segments), not O(bits)), and `concat_many`
//! splices compressed words without decompressing.

use crate::iter::Run;
use crate::wah::{lsb_mask, Wah, WahRef};

impl WahRef<'_> {
    /// Splits the bitmap into consecutive chunks of `chunk_len` bits (the
    /// last chunk may be shorter). One pass over the compressed form.
    ///
    /// # Panics
    /// Panics if `chunk_len == 0`.
    pub fn split_into(self, chunk_len: u64) -> Vec<Wah> {
        assert!(chunk_len > 0, "chunk length must be positive");
        if self.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.len().div_ceil(chunk_len) as usize);
        let mut cur = Wah::new();
        let mut room = chunk_len;
        for run in self.iter_runs() {
            let mut run = run;
            loop {
                let len = run.len();
                if len <= room {
                    append_run_piece(&mut cur, &run);
                    room -= len;
                    if room == 0 {
                        out.push(std::mem::take(&mut cur));
                        room = chunk_len;
                    }
                    break;
                }
                // Cut the run at the chunk boundary.
                let (head, tail) = split_run(&run, room);
                append_run_piece(&mut cur, &head);
                out.push(std::mem::take(&mut cur));
                room = chunk_len;
                run = tail;
            }
        }
        if !cur.is_empty() {
            out.push(cur);
        }
        out
    }

    /// Splits the bitmap into consecutive chunks of the given sizes, which
    /// must sum to the bitmap's length. One pass over the compressed form;
    /// used to split a selection mask along a column's (possibly irregular)
    /// segment boundaries.
    ///
    /// # Panics
    /// Panics if any size is zero or the sizes do not sum to `len()`.
    pub fn split_sizes(self, sizes: &[u64]) -> Vec<Wah> {
        assert_eq!(
            sizes.iter().sum::<u64>(),
            self.len(),
            "chunk sizes must cover the bitmap exactly"
        );
        let mut out = Vec::with_capacity(sizes.len());
        let mut sizes = sizes.iter().copied();
        let mut cur = Wah::new();
        let mut room = match sizes.next() {
            Some(first) => first,
            None => return out,
        };
        assert!(room > 0, "zero-size chunk");
        for run in self.iter_runs() {
            let mut run = run;
            loop {
                let len = run.len();
                if len <= room {
                    append_run_piece(&mut cur, &run);
                    room -= len;
                    if room == 0 {
                        out.push(std::mem::take(&mut cur));
                        match sizes.next() {
                            Some(next) => {
                                assert!(next > 0, "zero-size chunk");
                                room = next;
                            }
                            None => room = u64::MAX, // covered exactly; loop ends
                        }
                    }
                    break;
                }
                let (head, tail) = split_run(&run, room);
                append_run_piece(&mut cur, &head);
                out.push(std::mem::take(&mut cur));
                let next = sizes.next().expect("sizes exhausted before bitmap");
                assert!(next > 0, "zero-size chunk");
                room = next;
                run = tail;
            }
        }
        out
    }
}

impl Wah {
    /// Splits the bitmap into consecutive chunks of `chunk_len` bits
    /// ([`WahRef::split_into`]).
    ///
    /// # Panics
    /// Panics if `chunk_len == 0`.
    pub fn split_into(&self, chunk_len: u64) -> Vec<Wah> {
        self.view().split_into(chunk_len)
    }

    /// Splits the bitmap into consecutive chunks of the given sizes
    /// ([`WahRef::split_sizes`]).
    ///
    /// # Panics
    /// Panics if any size is zero or the sizes do not sum to `len()`.
    pub fn split_sizes(&self, sizes: &[u64]) -> Vec<Wah> {
        self.view().split_sizes(sizes)
    }

    /// Concatenates `parts` in order into one bitmap.
    pub fn concat_many<'a, I: IntoIterator<Item = &'a Wah>>(parts: I) -> Wah {
        let mut out = Wah::new();
        for p in parts {
            out.append_bitmap(p);
        }
        out
    }
}

fn append_run_piece(dst: &mut Wah, run: &Run) {
    match *run {
        Run::Fill { bit, len } => dst.append_run(bit, len),
        Run::Literal { word, len } => dst.push_bits(word, len),
    }
}

/// Splits `run` after `at` positions (`0 < at < run.len()`).
fn split_run(run: &Run, at: u64) -> (Run, Run) {
    match *run {
        Run::Fill { bit, len } => (Run::Fill { bit, len: at }, Run::Fill { bit, len: len - at }),
        Run::Literal { word, len } => (
            Run::Literal {
                word: word & lsb_mask(at),
                len: at,
            },
            Run::Literal {
                word: word >> at,
                len: len - at,
            },
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Wah {
        let mut w = Wah::new();
        w.append_run(false, 100);
        w.append_run(true, 200);
        for i in 0..500 {
            w.push(i % 3 == 0);
        }
        w.append_run(false, 1_000_000);
        w.push(true);
        w
    }

    #[test]
    fn split_concat_round_trip() {
        let w = sample();
        for chunk in [1u64, 7, 63, 64, 65_536, 1 << 40] {
            let parts = w.split_into(chunk);
            for (i, p) in parts.iter().enumerate() {
                p.check_invariants().unwrap();
                let expect = if i + 1 < parts.len() {
                    chunk
                } else {
                    w.len() - chunk * (parts.len() as u64 - 1)
                };
                assert_eq!(p.len(), expect, "chunk {chunk}, part {i}");
            }
            let back = Wah::concat_many(&parts);
            assert_eq!(back, w, "chunk {chunk}");
        }
    }

    #[test]
    fn split_preserves_bits() {
        let w = sample();
        let chunk = 97u64;
        let parts = w.split_into(chunk);
        for pos in [0u64, 99, 100, 299, 300, 302, 799, 800, 1_000_800] {
            let part = &parts[(pos / chunk) as usize];
            assert_eq!(part.get(pos % chunk), w.get(pos), "pos {pos}");
        }
    }

    #[test]
    fn split_counts_partition_ones() {
        let w = sample();
        let parts = w.split_into(1000);
        let total: u64 = parts.iter().map(Wah::count_ones).sum();
        assert_eq!(total, w.count_ones());
    }

    #[test]
    fn giant_fill_splits_cheaply() {
        let w = Wah::zeros(1 << 40);
        let parts = w.split_into(1 << 36);
        assert_eq!(parts.len(), 16);
        assert!(parts.iter().all(|p| p.size_bytes() < 64));
    }

    #[test]
    fn split_sizes_irregular_round_trip() {
        let w = sample();
        let n = w.len();
        let sizes = [1u64, 62, 64, 1000, n - 1127];
        let parts = w.split_sizes(&sizes);
        assert_eq!(parts.len(), sizes.len());
        for (p, &s) in parts.iter().zip(&sizes) {
            p.check_invariants().unwrap();
            assert_eq!(p.len(), s);
        }
        assert_eq!(Wah::concat_many(&parts), w);
    }

    #[test]
    #[should_panic(expected = "cover the bitmap exactly")]
    fn split_sizes_rejects_bad_total() {
        Wah::ones(10).split_sizes(&[4, 4]);
    }

    #[test]
    fn empty_and_exact() {
        assert!(Wah::new().split_into(10).is_empty());
        let w = Wah::ones(128);
        let parts = w.split_into(64);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0], Wah::ones(64));
        assert_eq!(parts[1], Wah::ones(64));
    }
}
