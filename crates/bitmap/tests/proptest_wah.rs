//! Property tests: the WAH implementation against the uncompressed
//! [`PlainBitmap`] oracle, over adversarial bit patterns (random literals,
//! long runs, group-boundary straddles).

use cods_bitmap::{PlainBitmap, Wah};
use proptest::prelude::*;

/// Strategy producing bit vectors with a healthy mix of runs and noise,
/// biased toward group-boundary (63/126/…) lengths.
fn bit_vector() -> impl Strategy<Value = Vec<bool>> {
    let piece = prop_oneof![
        // Random literal chunk.
        prop::collection::vec(any::<bool>(), 0..80),
        // Homogeneous run with length around group boundaries.
        (any::<bool>(), 0usize..200).prop_map(|(b, n)| vec![b; n]),
        (
            any::<bool>(),
            prop_oneof![Just(62usize), Just(63), Just(64), Just(126), Just(189)]
        )
            .prop_map(|(b, n)| vec![b; n]),
    ];
    prop::collection::vec(piece, 0..8).prop_map(|chunks| chunks.concat())
}

fn to_wah(bits: &[bool]) -> Wah {
    Wah::from_bits(bits.iter().copied())
}

fn to_plain(bits: &[bool]) -> PlainBitmap {
    let mut p = PlainBitmap::new();
    for &b in bits {
        p.push(b);
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn construction_matches_oracle(bits in bit_vector()) {
        let w = to_wah(&bits);
        w.check_invariants().unwrap();
        prop_assert_eq!(w.len(), bits.len() as u64);
        prop_assert_eq!(w.count_ones(), bits.iter().filter(|&&b| b).count() as u64);
        for (i, &b) in bits.iter().enumerate() {
            prop_assert_eq!(w.get(i as u64), b);
        }
    }

    #[test]
    fn binary_ops_match_oracle(a in bit_vector(), b in bit_vector()) {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let (wa, wb) = (to_wah(a), to_wah(b));
        let (pa, pb) = (to_plain(a), to_plain(b));
        prop_assert_eq!(wa.and(&wb), pa.and(&pb).to_wah());
        prop_assert_eq!(wa.or(&wb), pa.or(&pb).to_wah());
    }

    #[test]
    fn not_matches_oracle(bits in bit_vector()) {
        let w = to_wah(&bits);
        let n = w.not();
        n.check_invariants().unwrap();
        prop_assert_eq!(n, to_plain(&bits).not().to_wah());
    }

    #[test]
    fn ones_iterator_matches_oracle(bits in bit_vector()) {
        let w = to_wah(&bits);
        let expected: Vec<u64> = bits
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| b.then_some(i as u64))
            .collect();
        prop_assert_eq!(w.iter_ones().collect::<Vec<_>>(), expected);
    }

    #[test]
    fn rank_counts_the_ones_before_each_one(bits in bit_vector()) {
        let w = to_wah(&bits);
        let ones = w.count_ones();
        for (k, p) in w.iter_ones().enumerate() {
            prop_assert!(w.get(p));
            prop_assert_eq!(w.rank1(p), k as u64);
        }
        prop_assert_eq!(w.rank1(w.len()), ones);
    }

    #[test]
    fn filter_positions_matches_oracle(
        bits in bit_vector(),
        seed in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        prop_assume!(!bits.is_empty());
        let w = to_wah(&bits);
        let mut positions: Vec<u64> =
            seed.iter().map(|&s| u64::from(s) % bits.len() as u64).collect();
        positions.sort_unstable();
        let f = w.filter_positions(&positions);
        f.check_invariants().unwrap();
        prop_assert_eq!(f.len(), positions.len() as u64);
        for (j, &p) in positions.iter().enumerate() {
            prop_assert_eq!(f.get(j as u64), bits[p as usize]);
        }
    }

    #[test]
    fn filter_bitmap_matches_filter_positions(bits in bit_vector(), mask in bit_vector()) {
        let n = bits.len().min(mask.len());
        let (bits, mask) = (&bits[..n], &mask[..n]);
        let w = to_wah(bits);
        let m = to_wah(mask);
        let positions: Vec<u64> = m.iter_ones().collect();
        prop_assert_eq!(w.filter_bitmap(&m), w.filter_positions(&positions));
    }

    #[test]
    fn slice_concat_identity(bits in bit_vector(), cut in any::<prop::sample::Index>()) {
        prop_assume!(!bits.is_empty());
        let w = to_wah(&bits);
        let c = cut.index(bits.len()) as u64;
        let joined = w.slice(0, c).concat(&w.slice(c, w.len()));
        joined.check_invariants().unwrap();
        prop_assert_eq!(joined, w);
    }

    #[test]
    fn concat_matches_oracle(a in bit_vector(), b in bit_vector()) {
        let w = to_wah(&a).concat(&to_wah(&b));
        w.check_invariants().unwrap();
        let mut all = a;
        all.extend_from_slice(&b);
        prop_assert_eq!(w, to_wah(&all));
    }

    #[test]
    fn codec_round_trip(bits in bit_vector()) {
        let w = to_wah(&bits);
        let mut buf = bytes::BytesMut::new();
        w.encode(&mut buf);
        prop_assert_eq!(buf.len(), w.encoded_len());
        let back = Wah::decode(&mut buf.freeze()).unwrap();
        prop_assert_eq!(back, w);
    }

    #[test]
    fn from_sorted_positions_round_trip(
        raw in prop::collection::btree_set(0u64..5000, 0..64),
        extra in 0u64..100,
    ) {
        let positions: Vec<u64> = raw.into_iter().collect();
        let len = positions.last().map_or(0, |&p| p + 1) + extra;
        let w = Wah::from_sorted_positions(positions.iter().copied(), len);
        w.check_invariants().unwrap();
        prop_assert_eq!(w.to_positions(), positions);
    }

    #[test]
    fn append_run_equivalent_to_pushes(runs in prop::collection::vec((any::<bool>(), 0u64..200), 0..10)) {
        let mut by_run = Wah::new();
        let mut by_push = Wah::new();
        for &(bit, n) in &runs {
            by_run.append_run(bit, n);
            for _ in 0..n {
                by_push.push(bit);
            }
        }
        by_run.check_invariants().unwrap();
        prop_assert_eq!(by_run, by_push);
    }

    #[test]
    fn intervals_re_expand_to_the_bits(bits in bit_vector()) {
        let w = to_wah(&bits);
        let intervals: Vec<(u64, u64)> = w.iter_intervals().collect();
        // Maximal and in order: a gap of at least one zero between two.
        for pair in intervals.windows(2) {
            prop_assert!(pair[0].0 + pair[0].1 < pair[1].0);
        }
        let mut expanded = vec![false; bits.len()];
        for &(start, len) in &intervals {
            prop_assert!(len > 0);
            expanded[start as usize..(start + len) as usize].fill(true);
        }
        prop_assert_eq!(expanded, w.iter_bits().collect::<Vec<_>>());
        prop_assert_eq!(w.count_intervals(), intervals.len() as u64);
    }

    #[test]
    fn scatter_writes_exactly_the_positions_iter_ones_yields(
        runs in prop::collection::vec(
            (
                any::<bool>(),
                prop_oneof![
                    // Literal noise, group-boundary straddles, and fills of
                    // many groups (the 1-fill arm writes whole slices).
                    0u64..70,
                    prop_oneof![Just(62u64), Just(63), Just(64), Just(126)],
                    (1u64..200).prop_map(|groups| groups * 63),
                    1u64..5_000,
                ],
            ),
            0..10,
        ),
        literals in prop::collection::vec(any::<u64>(), 0..4),
    ) {
        // Runs (fills, or a tail of fewer than 63 bits) then random whole
        // literal groups then runs again: covers empty, fill-only,
        // literal-only, tail-only and `len % 63 != 0` bitmaps.
        let mut w = Wah::new();
        let half = runs.len() / 2;
        for &(bit, n) in &runs[..half] {
            w.append_run(bit, n);
        }
        for &lit in &literals {
            for i in 0..63 {
                w.push(lit >> i & 1 == 1);
            }
        }
        for &(bit, n) in &runs[half..] {
            w.append_run(bit, n);
        }
        let sentinel = u32::MAX;
        let mut out = vec![sentinel; w.len() as usize];
        w.scatter(&mut out, 5);
        let written: Vec<u64> = out
            .iter()
            .enumerate()
            .filter_map(|(p, &x)| (x != sentinel).then_some(p as u64))
            .collect();
        prop_assert!(out.iter().all(|&x| x == sentinel || x == 5));
        prop_assert_eq!(written, w.iter_ones().collect::<Vec<_>>());
    }

    #[test]
    fn interval_count_and_iterator_agree_across_long_fills(
        runs in prop::collection::vec(
            (
                any::<bool>(),
                prop_oneof![
                    0u64..200,
                    // Whole groups, up to fills far too long to expand.
                    (0u64..(1 << 40)).prop_map(|groups| groups * 63),
                    1u64..(1 << 46),
                ],
            ),
            0..12,
        ),
    ) {
        let mut w = Wah::new();
        let mut expected: Vec<(u64, u64)> = Vec::new();
        for &(bit, n) in &runs {
            let at = w.len();
            w.append_run(bit, n);
            if bit && n > 0 {
                match expected.last_mut() {
                    Some((start, len)) if *start + *len == at => *len += n,
                    _ => expected.push((at, n)),
                }
            }
        }
        w.check_invariants().unwrap();
        prop_assert_eq!(w.count_intervals(), expected.len() as u64);
        prop_assert_eq!(w.iter_intervals().collect::<Vec<_>>(), expected);
    }
}
