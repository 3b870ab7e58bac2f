//! Logical operations (AND / OR / NOT) computed *directly on
//! the compressed form*, the property WAH was designed for (Wu, Otoo &
//! Shoshani, TODS 2006). No operand is ever decompressed to a bit vector;
//! the cost is linear in the number of compressed words of the inputs.

use crate::wah::{lsb_mask, Wah, WahRef};
use crate::word::*;

/// A decoded view of one compressed word, with fills still run-length coded.
#[derive(Clone, Copy, Debug)]
enum Seg {
    Fill { bit: bool, groups: u64 },
    Literal(u64),
}

/// Streaming decoder over the complete-group words of a bitmap.
struct GroupDecoder<'a> {
    words: std::slice::Iter<'a, u64>,
    pending: Option<Seg>,
}

impl<'a> GroupDecoder<'a> {
    fn new(words: &'a [u64]) -> Self {
        GroupDecoder {
            words: words.iter(),
            pending: None,
        }
    }

    /// Current segment, loading the next word if necessary.
    fn peek(&mut self) -> Option<Seg> {
        if self.pending.is_none() {
            self.pending = self.words.next().map(|&w| {
                if is_fill(w) {
                    Seg::Fill {
                        bit: fill_bit(w),
                        groups: fill_groups(w),
                    }
                } else {
                    Seg::Literal(w)
                }
            });
        }
        self.pending
    }

    /// Consumes `n` groups from the current segment (which must be a fill
    /// with at least `n` groups, or a literal with `n == 1`).
    fn consume(&mut self, n: u64) {
        match self.pending.take() {
            Some(Seg::Fill { bit, groups }) => {
                debug_assert!(groups >= n);
                if groups > n {
                    self.pending = Some(Seg::Fill {
                        bit,
                        groups: groups - n,
                    });
                }
            }
            Some(Seg::Literal(_)) => debug_assert_eq!(n, 1),
            None => unreachable!("consume past end"),
        }
    }
}

/// The supported binary operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    /// Bitwise conjunction.
    And,
    /// Bitwise disjunction.
    Or,
}

impl BinOp {
    #[inline(always)]
    fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            BinOp::And => a & b,
            BinOp::Or => a | b,
        }
    }
}

fn binary(a: WahRef<'_>, b: WahRef<'_>, op: BinOp) -> Wah {
    assert_eq!(
        a.len(),
        b.len(),
        "bitmap length mismatch: {} vs {}",
        a.len(),
        b.len()
    );
    let mut out = Wah::new();
    let mut da = GroupDecoder::new(a.words);
    let mut db = GroupDecoder::new(b.words);
    loop {
        match (da.peek(), db.peek()) {
            (None, None) => break,
            (Some(sa), Some(sb)) => match (sa, sb) {
                (
                    Seg::Fill {
                        bit: ba,
                        groups: ga,
                    },
                    Seg::Fill {
                        bit: bb,
                        groups: gb,
                    },
                ) => {
                    let n = ga.min(gb);
                    let r = op.apply(fill_as_literal(ba), fill_as_literal(bb));
                    debug_assert!(r == 0 || r == ALL_ONES_LITERAL);
                    out.push_fill(r == ALL_ONES_LITERAL, n);
                    da.consume(n);
                    db.consume(n);
                }
                (Seg::Fill { bit, .. }, Seg::Literal(w)) => {
                    out.push_group(op.apply(fill_as_literal(bit), w));
                    da.consume(1);
                    db.consume(1);
                }
                (Seg::Literal(w), Seg::Fill { bit, .. }) => {
                    out.push_group(op.apply(w, fill_as_literal(bit)));
                    da.consume(1);
                    db.consume(1);
                }
                (Seg::Literal(wa), Seg::Literal(wb)) => {
                    out.push_group(op.apply(wa, wb));
                    da.consume(1);
                    db.consume(1);
                }
            },
            _ => unreachable!("equal-length bitmaps have equal group counts"),
        }
    }
    let tail_bits = u64::from(a.active_bits);
    if tail_bits > 0 {
        out.push_bits(
            op.apply(a.active, b.active) & lsb_mask(tail_bits),
            tail_bits,
        );
    }
    out
}

impl<'a> WahRef<'a> {
    /// Bitwise AND. Both operands must have the same length.
    pub fn and(self, other: WahRef<'_>) -> Wah {
        binary(self, other, BinOp::And)
    }

    /// Bitwise OR. Both operands must have the same length.
    pub fn or(self, other: WahRef<'_>) -> Wah {
        binary(self, other, BinOp::Or)
    }

    /// OR of many bitmaps (all the same length). Returns a zero bitmap of
    /// length `len` when the iterator is empty.
    pub fn union_many<I: IntoIterator<Item = WahRef<'a>>>(bitmaps: I, len: u64) -> Wah {
        let mut acc: Option<Wah> = None;
        for b in bitmaps {
            acc = Some(match acc {
                None => b.to_wah(),
                Some(a) => a.view().or(b),
            });
        }
        acc.unwrap_or_else(|| Wah::zeros(len))
    }
}

/// Bitwise complement over the full length.
impl std::ops::Not for WahRef<'_> {
    type Output = Wah;

    fn not(self) -> Wah {
        let mut out = Wah::new();
        for &w in self.words {
            if is_fill(w) {
                out.push_fill(!fill_bit(w), fill_groups(w));
            } else {
                out.push_group(w ^ LIT_MASK);
            }
        }
        let tail = u64::from(self.active_bits);
        if tail > 0 {
            out.push_bits(!self.active & lsb_mask(tail), tail);
        }
        out
    }
}

impl Wah {
    /// Bitwise AND. Both operands must have the same length.
    pub fn and(&self, other: &Wah) -> Wah {
        self.view().and(other.view())
    }

    /// Bitwise OR. Both operands must have the same length.
    pub fn or(&self, other: &Wah) -> Wah {
        self.view().or(other.view())
    }

    /// Bitwise complement over the full length.
    pub fn not(&self) -> Wah {
        !self.view()
    }

    /// OR of many bitmaps ([`WahRef::union_many`]).
    pub fn union_many<'a, I: IntoIterator<Item = &'a Wah>>(bitmaps: I, len: u64) -> Wah {
        WahRef::union_many(bitmaps.into_iter().map(Wah::view), len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_op(a_bits: &[bool], b_bits: &[bool]) {
        let a = Wah::from_bits(a_bits.iter().copied());
        let b = Wah::from_bits(b_bits.iter().copied());
        let and = a.and(&b);
        let or = a.or(&b);
        and.check_invariants().unwrap();
        or.check_invariants().unwrap();
        for i in 0..a_bits.len() {
            assert_eq!(and.get(i as u64), a_bits[i] & b_bits[i], "and bit {i}");
            assert_eq!(or.get(i as u64), a_bits[i] | b_bits[i], "or bit {i}");
        }
    }

    #[test]
    fn small_ops() {
        check_op(&[true, false, true, false], &[true, true, false, false]);
    }

    #[test]
    fn ops_across_group_boundaries() {
        let a: Vec<bool> = (0..200).map(|i| i % 3 == 0).collect();
        let b: Vec<bool> = (0..200).map(|i| i % 5 == 0).collect();
        check_op(&a, &b);
    }

    #[test]
    fn ops_with_long_fills() {
        let mut a_bits = vec![false; 63 * 100];
        let mut b_bits = vec![true; 63 * 100];
        a_bits[63 * 50] = true;
        b_bits[63 * 50 + 1] = false;
        check_op(&a_bits, &b_bits);
    }

    #[test]
    fn fill_vs_fill_misaligned_runs() {
        // a: 10 zero-groups then 20 one-groups; b: 15 one-groups then 15 zero-groups.
        let mut a = Wah::new();
        a.append_run(false, 63 * 10);
        a.append_run(true, 63 * 20);
        let mut b = Wah::new();
        b.append_run(true, 63 * 15);
        b.append_run(false, 63 * 15);
        let and = a.and(&b);
        and.check_invariants().unwrap();
        assert_eq!(and.count_ones(), 63 * 5);
        let ones = and.to_positions();
        assert_eq!(ones.first(), Some(&(63 * 10)));
        assert_eq!(ones.last(), Some(&(63 * 15 - 1)));
    }

    #[test]
    fn not_round_trip() {
        let pos = [0u64, 3, 63, 64, 100, 4000];
        let w = Wah::from_sorted_positions(pos.iter().copied(), 4096);
        let n = w.not();
        n.check_invariants().unwrap();
        assert_eq!(n.count_ones(), 4096 - pos.len() as u64);
        assert_eq!(n.not(), w);
    }

    #[test]
    fn de_morgan() {
        let a = Wah::from_sorted_positions([1u64, 70, 300], 500);
        let b = Wah::from_sorted_positions([1u64, 71, 300, 499], 500);
        assert_eq!(a.and(&b).not(), a.not().or(&b.not()));
        assert_eq!(a.or(&b).not(), a.not().and(&b.not()));
    }

    #[test]
    fn union_many_ors_everything() {
        let parts: Vec<Wah> = (0..10)
            .map(|i| Wah::from_sorted_positions([i as u64 * 10], 100))
            .collect();
        let u = Wah::union_many(parts.iter(), 100);
        assert_eq!(u.count_ones(), 10);
        for i in 0..10u64 {
            assert!(u.get(i * 10));
        }
        let empty = Wah::union_many(std::iter::empty(), 77);
        assert_eq!(empty.len(), 77);
        assert_eq!(empty.count_ones(), 0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = Wah::zeros(10).and(&Wah::zeros(11));
    }

    #[test]
    fn ops_on_empty() {
        let e = Wah::new();
        assert_eq!(e.and(&e), e);
        assert_eq!(e.or(&e), e);
        assert_eq!(e.not(), e);
    }
}
