//! Property tests of the column store against a plain `Vec<Value>` model,
//! of the segmented layout against a single-segment (monolithic) column,
//! and of the per-segment encodings against each other: every data-level
//! primitive must be bit-identical regardless of how the rows are chunked
//! or which physical encoding holds each segment — including **randomly
//! mixed** directories where bitmap and RLE segments interleave within one
//! column.

use cods_storage::{EncodedColumn, Encoding, Value, ValueType};
use proptest::prelude::*;

/// A segment size so large the column degenerates to one segment — the
/// monolithic oracle.
const MONO: u64 = 1 << 40;

/// Small segment sizes that force boundary handling.
fn seg_sizes() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(1u64),
        Just(2u64),
        Just(7u64),
        Just(63u64),
        Just(64u64),
        Just(100u64),
    ]
}

fn values() -> impl Strategy<Value = Vec<Value>> {
    prop::collection::vec(
        prop_oneof![(0i64..12).prop_map(Value::int), Just(Value::Null),],
        0..300,
    )
}

fn bitmap_col(vals: &[Value], seg: u64) -> EncodedColumn {
    EncodedColumn::from_values_with(ValueType::Int, vals, seg).unwrap()
}

/// Recodes segments to RLE wherever `pattern` has a set bit — a random
/// per-segment encoding assignment.
fn mix(col: &EncodedColumn, pattern: u64) -> EncodedColumn {
    let mut out = col.clone();
    for i in 0..col.segment_count() {
        if pattern & (1 << (i % 64)) != 0 {
            out = out.recode_segments(i..i + 1, Encoding::Rle).unwrap();
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn column_round_trips(vals in values()) {
        let col = EncodedColumn::from_values(ValueType::Int, &vals).unwrap();
        col.check_invariants().unwrap();
        prop_assert_eq!(col.values(), vals);
    }

    #[test]
    fn filter_positions_matches_model(vals in values(), seed in prop::collection::vec(any::<u16>(), 0..100)) {
        prop_assume!(!vals.is_empty());
        let col = EncodedColumn::from_values(ValueType::Int, &vals).unwrap();
        let mut positions: Vec<u64> = seed
            .iter()
            .map(|&s| u64::from(s) % vals.len() as u64)
            .collect();
        positions.sort_unstable();
        let filtered = col.filter_positions(&positions).unwrap();
        filtered.check_invariants().unwrap();
        let expect: Vec<Value> = positions.iter().map(|&p| vals[p as usize].clone()).collect();
        prop_assert_eq!(filtered.values(), expect);
    }

    #[test]
    fn gather_matches_model_with_unsorted_positions(
        vals in values(),
        seed in prop::collection::vec(any::<u16>(), 0..100),
    ) {
        prop_assume!(!vals.is_empty());
        let col = EncodedColumn::from_values(ValueType::Int, &vals).unwrap();
        let positions: Vec<u64> = seed
            .iter()
            .map(|&s| u64::from(s) % vals.len() as u64)
            .collect();
        let gathered = col.gather(&positions).unwrap();
        let expect: Vec<Value> = positions.iter().map(|&p| vals[p as usize].clone()).collect();
        prop_assert_eq!(gathered.values(), expect);
    }

    #[test]
    fn concat_matches_model(a in values(), b in values()) {
        let ca = EncodedColumn::from_values(ValueType::Int, &a).unwrap();
        let cb = EncodedColumn::from_values(ValueType::Int, &b).unwrap();
        let joined = ca.concat(&cb).unwrap();
        joined.check_invariants().unwrap();
        let mut expect = a;
        expect.extend(b);
        prop_assert_eq!(joined.values(), expect);
    }

    #[test]
    fn slice_matches_model(vals in values(), a in any::<prop::sample::Index>(), b in any::<prop::sample::Index>()) {
        prop_assume!(!vals.is_empty());
        let (mut lo, mut hi) = (a.index(vals.len() + 1) as u64, b.index(vals.len() + 1) as u64);
        if lo > hi {
            std::mem::swap(&mut lo, &mut hi);
        }
        let col = EncodedColumn::from_values(ValueType::Int, &vals).unwrap();
        let sliced = col.slice(lo, hi).unwrap();
        prop_assert_eq!(sliced.values(), vals[lo as usize..hi as usize].to_vec());
    }

    #[test]
    fn rle_agrees_with_bitmap_encoding(vals in values()) {
        let bitmap = EncodedColumn::from_values(ValueType::Int, &vals).unwrap();
        let rle = bitmap.recode(Encoding::Rle).unwrap();
        rle.check_invariants().unwrap();
        prop_assert_eq!(rle.values(), bitmap.values());
        prop_assert_eq!(rle.recode(Encoding::Bitmap).unwrap(), bitmap);
    }

    #[test]
    fn value_ids_partition_every_row(vals in values()) {
        let col = EncodedColumn::from_values(ValueType::Int, &vals).unwrap();
        let ids = col.value_ids();
        prop_assert_eq!(ids.len(), vals.len());
        for (row, id) in ids.iter().enumerate() {
            prop_assert_eq!(col.dict().value(*id), &vals[row]);
        }
    }

    // ---- Segmented vs monolithic equivalence ----

    #[test]
    fn segmented_filter_matches_monolithic(
        vals in values(),
        seg in seg_sizes(),
        seed in prop::collection::vec(any::<u16>(), 0..100),
    ) {
        prop_assume!(!vals.is_empty());
        let segmented = bitmap_col(&vals, seg);
        let mono = bitmap_col(&vals, MONO);
        prop_assert!(mono.segment_count() <= 1);
        let mut positions: Vec<u64> = seed
            .iter()
            .map(|&s| u64::from(s) % vals.len() as u64)
            .collect();
        positions.sort_unstable();
        let a = segmented.filter_positions(&positions).unwrap();
        let b = mono.filter_positions(&positions).unwrap();
        a.check_invariants().unwrap();
        prop_assert_eq!(a.values(), b.values());
        prop_assert_eq!(a.dict(), b.dict());
    }

    #[test]
    fn segmented_concat_matches_monolithic(a in values(), b in values(), seg in seg_sizes()) {
        let sa = bitmap_col(&a, seg);
        let sb = bitmap_col(&b, seg);
        let ma = bitmap_col(&a, MONO);
        let mb = bitmap_col(&b, MONO);
        let joined_seg = sa.concat(&sb).unwrap();
        let joined_mono = ma.concat(&mb).unwrap();
        joined_seg.check_invariants().unwrap();
        prop_assert_eq!(joined_seg.values(), joined_mono.values());
        prop_assert_eq!(joined_seg.dict(), joined_mono.dict());
    }

    #[test]
    fn segmented_slice_matches_monolithic(
        vals in values(),
        seg in seg_sizes(),
        a in any::<prop::sample::Index>(),
        b in any::<prop::sample::Index>(),
    ) {
        prop_assume!(!vals.is_empty());
        let (mut lo, mut hi) = (a.index(vals.len() + 1) as u64, b.index(vals.len() + 1) as u64);
        if lo > hi {
            std::mem::swap(&mut lo, &mut hi);
        }
        let segmented = bitmap_col(&vals, seg);
        let mono = bitmap_col(&vals, MONO);
        let ss = segmented.slice(lo, hi).unwrap();
        let ms = mono.slice(lo, hi).unwrap();
        ss.check_invariants().unwrap();
        prop_assert_eq!(ss.values(), ms.values());
        prop_assert_eq!(ss.dict(), ms.dict());
    }

    #[test]
    fn segmented_value_ids_match_monolithic(vals in values(), seg in seg_sizes()) {
        let segmented = bitmap_col(&vals, seg);
        let mono = bitmap_col(&vals, MONO);
        // Dictionaries are built in the same first-appearance order, so the
        // id arrays must be literally identical.
        prop_assert_eq!(segmented.value_ids(), mono.value_ids());
    }

    #[test]
    fn segmented_value_bitmap_matches_monolithic(vals in values(), seg in seg_sizes()) {
        let segmented = bitmap_col(&vals, seg);
        let mono = bitmap_col(&vals, MONO);
        for id in 0..segmented.distinct_count() as u32 {
            prop_assert_eq!(segmented.value_bitmap(id), mono.value_bitmap(id));
            prop_assert_eq!(segmented.value_count(id), mono.value_count(id));
        }
    }

    #[test]
    fn segmented_gather_matches_monolithic(
        vals in values(),
        seg in seg_sizes(),
        seed in prop::collection::vec(any::<u16>(), 0..100),
    ) {
        prop_assume!(!vals.is_empty());
        let positions: Vec<u64> = seed
            .iter()
            .map(|&s| u64::from(s) % vals.len() as u64)
            .collect();
        let segmented = bitmap_col(&vals, seg);
        let mono = bitmap_col(&vals, MONO);
        prop_assert_eq!(
            segmented.gather(&positions).unwrap().values(),
            mono.gather(&positions).unwrap().values()
        );
    }

    #[test]
    fn persist_round_trip(vals in values(), seg in seg_sizes()) {
        use cods_storage::persist::{decode_table, encode_table};
        use cods_storage::{Schema, Table};
        use std::sync::Arc;
        let schema = Schema::build(&[("c", ValueType::Int)], &[]).unwrap();
        let col = Arc::new(bitmap_col(&vals, seg));
        let t = Table::new("t", schema, vec![col]).unwrap();
        let now = decode_table(encode_table(&t)).unwrap();
        prop_assert_eq!(now.to_rows(), t.to_rows());
        now.check_invariants().unwrap();
    }

    // ---- Mixed-directory differential: every primitive bit-identical ----

    #[test]
    fn mixed_directory_matches_uniform_primitives(
        vals in values(),
        seg in seg_sizes(),
        pattern in any::<u64>(),
        seed in prop::collection::vec(any::<u16>(), 0..100),
    ) {
        prop_assume!(!vals.is_empty());
        let bitmap = bitmap_col(&vals, seg);
        let mixed = mix(&bitmap, pattern);
        mixed.check_invariants().unwrap();
        prop_assert_eq!(mixed.values(), bitmap.values());
        prop_assert_eq!(mixed.value_ids(), bitmap.value_ids());
        prop_assert_eq!(mixed.dict(), bitmap.dict());
        // Filter (sorted) and gather (unsorted).
        let mut positions: Vec<u64> = seed
            .iter()
            .map(|&s| u64::from(s) % vals.len() as u64)
            .collect();
        let unsorted = positions.clone();
        positions.sort_unstable();
        let fm = mixed.filter_positions(&positions).unwrap();
        fm.check_invariants().unwrap();
        prop_assert_eq!(fm.values(), bitmap.filter_positions(&positions).unwrap().values());
        prop_assert_eq!(
            mixed.gather(&unsorted).unwrap().values(),
            bitmap.gather(&unsorted).unwrap().values()
        );
        // Value bitmaps.
        for id in 0..bitmap.distinct_count() as u32 {
            prop_assert_eq!(mixed.value_bitmap(id), bitmap.value_bitmap(id));
            prop_assert_eq!(mixed.value_count(id), bitmap.value_count(id));
        }
    }

    #[test]
    fn mixed_slice_and_concat_match_uniform(
        vals in values(),
        seg in seg_sizes(),
        pattern in any::<u64>(),
        a in any::<prop::sample::Index>(),
        b in any::<prop::sample::Index>(),
    ) {
        prop_assume!(!vals.is_empty());
        let (mut lo, mut hi) = (a.index(vals.len() + 1) as u64, b.index(vals.len() + 1) as u64);
        if lo > hi {
            std::mem::swap(&mut lo, &mut hi);
        }
        let bitmap = bitmap_col(&vals, seg);
        let mixed = mix(&bitmap, pattern);
        let sm = mixed.slice(lo, hi).unwrap();
        sm.check_invariants().unwrap();
        prop_assert_eq!(sm.values(), bitmap.slice(lo, hi).unwrap().values());
        // Concat of two differently mixed halves.
        let other = mix(&bitmap, pattern.rotate_left(17));
        let joined = mixed.concat(&other).unwrap();
        joined.check_invariants().unwrap();
        let mut expect = vals.clone();
        expect.extend(vals);
        prop_assert_eq!(joined.values(), expect);
    }

    #[test]
    fn mixed_compaction_preserves_results(
        slices in prop::collection::vec((any::<prop::sample::Index>(), 1u64..20), 1..40),
        seg in seg_sizes(),
        pattern in any::<u64>(),
    ) {
        // Build fragmented directories — uniform bitmap, uniform RLE, and
        // randomly mixed — from a UNION chain of small slices, then check
        // compaction changes neither values nor dictionaries, transcoding
        // mixed merge groups as needed.
        let base_vals: Vec<Value> = (0..200).map(|i| Value::int(i % 9)).collect();
        let bitmap_base = bitmap_col(&base_vals, seg);
        let rle_base = bitmap_base.recode(Encoding::Rle).unwrap();
        let mixed_base = mix(&bitmap_base, pattern);
        for base in [&bitmap_base, &rle_base, &mixed_base] {
            let mut acc: Option<EncodedColumn> = None;
            for (start, len) in &slices {
                let lo = start.index(200) as u64;
                let hi = (lo + len).min(200);
                let piece = base.slice(lo, hi).unwrap();
                acc = Some(match acc {
                    None => piece,
                    Some(acc) => acc.concat(&piece).unwrap(),
                });
            }
            let acc = acc.unwrap();
            let compacted = acc.compacted().unwrap();
            compacted.check_invariants().unwrap();
            prop_assert_eq!(compacted.values(), acc.values());
            prop_assert_eq!(compacted.dict(), acc.dict());
        }
    }

    #[test]
    fn auto_recode_keeps_data_and_respects_range_pins(
        vals in values(),
        seg in seg_sizes(),
        pattern in any::<u64>(),
    ) {
        let bitmap = bitmap_col(&vals, seg);
        let mixed = mix(&bitmap, pattern);
        let auto = mixed.auto_recoded().unwrap();
        auto.check_invariants().unwrap();
        prop_assert_eq!(auto.values(), bitmap.values());
        // Per-segment chooser picks are what the directory now holds.
        for i in 0..auto.segment_count() {
            if !auto.segment_pinned(i) {
                prop_assert_eq!(auto.segment_encoding(i), auto.choose_segment_encoding(i));
            }
        }
        // Pinned ranges (the RLE segments were range-recoded, hence
        // pinned) must keep their encoding through auto.
        for i in 0..mixed.segment_count() {
            if mixed.segment_pinned(i) {
                prop_assert_eq!(auto.segment_encoding(i), mixed.segment_encoding(i));
            }
        }
    }

    // ---- The selection walker vs the row oracle ----

    #[test]
    fn selection_reads_match_the_row_oracle(
        vals in values(),
        seg in 1u64..80,
        cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..6),
        layout in 0u8..3,
        pattern in any::<u64>(),
        steps in prop::collection::vec((0u64..48, 1u64..16), 0..48),
        whole in any::<bool>(),
    ) {
        // An irregular directory: the column cut at random rows and glued
        // back, then mixed, pinned RLE as a whole, or left bitmap.
        let rows = vals.len() as u64;
        let base = bitmap_col(&vals, seg);
        let mut at: Vec<u64> = cuts.iter().map(|c| c.index(vals.len() + 1) as u64).collect();
        at.extend([0, rows]);
        at.sort_unstable();
        at.dedup();
        let glued = at
            .windows(2)
            .map(|w| base.slice(w[0], w[1]).unwrap())
            .reduce(|a, b| a.concat(&b).unwrap())
            .unwrap_or(base);
        let col = match layout {
            0 => mix(&glued, pattern),
            1 => {
                let mut pinned = glued.recode(Encoding::Rle).unwrap();
                pinned.set_encoding_pinned(true);
                pinned
            }
            _ => glued,
        };
        // Gaps from none to several segments, fragments shorter than a
        // segment or straddling its end, or the whole column.
        let sel: Vec<(u64, u64)> = if whole && rows > 0 {
            vec![(0, rows)]
        } else {
            let mut sel = Vec::new();
            let mut end = 0u64;
            for &(gap, len) in &steps {
                let start = end + gap;
                end = (start + len).min(rows);
                if start >= end {
                    break;
                }
                sel.push((start, end));
            }
            sel
        };
        let selected_rows = |sel: &[(u64, u64)]| -> Vec<u64> {
            sel.iter().flat_map(|&(a, b)| a..b).collect()
        };

        let ids = col.try_ids_in(&sel).unwrap();
        let got: Vec<&Value> = ids.iter().map(|&id| col.dict().value(id)).collect();
        let want: Vec<&Value> = selected_rows(&sel).iter().map(|&r| &vals[r as usize]).collect();
        prop_assert_eq!(got, want);

        let runs = col.try_runs_in(&sel).unwrap();
        prop_assert!(runs.iter().all(|&(_, n)| n > 0), "empty run in {:?}", runs);
        prop_assert!(runs.windows(2).all(|w| w[0].0 != w[1].0), "runs not maximal: {:?}", runs);
        let expanded: Vec<u32> = runs
            .iter()
            .flat_map(|&(id, n)| std::iter::repeat_n(id, n as usize))
            .collect();
        prop_assert_eq!(expanded, ids);

        let split = col.split_by_segment(&sel);
        prop_assert!(split.windows(2).all(|w| w[0].0 < w[1].0), "one entry per segment, in order");
        for (seg, piece) in &split {
            let range = col.segment_range(*seg);
            prop_assert!(!piece.is_empty());
            for &(a, b) in piece {
                prop_assert!(range.start <= a && a < b && b <= range.end, "{:?} outside {:?}", (a, b), range);
            }
        }
        let tiles: Vec<(u64, u64)> = split.iter().flat_map(|(_, piece)| piece.iter().copied()).collect();
        prop_assert_eq!(selected_rows(&tiles), selected_rows(&sel));
    }

    // ---- Segment word arena vs per-id bitmaps ----

    #[test]
    fn arena_segments_match_a_per_id_reconstruction(
        vals in values(),
        seg in seg_sizes(),
        pattern in any::<u64>(),
    ) {
        use cods_bitmap::Wah;
        use cods_storage::store::{decode_payload, encode_payload};
        use cods_storage::SegmentEnc;
        let col = mix(&bitmap_col(&vals, seg), pattern);
        for (i, slot) in col.segments().iter().enumerate() {
            let rows = slot.meta().rows;
            let range = col.segment_range(i);
            let ids = col.try_ids_in(&[(range.start, range.end)]).unwrap();
            let enc = slot.enc();
            let SegmentEnc::Bitmap(mem) = &enc else { continue };
            // The oracle: one owned bitmap per present id, from the rows.
            let per_id: Vec<Wah> = slot
                .meta()
                .present_ids
                .iter()
                .map(|&id| {
                    let at = (0..rows).filter(|&r| ids[r as usize] == id);
                    Wah::from_sorted_positions(at, rows)
                })
                .collect();
            // The payload is what one `Wah::encode` per id, in id order, writes.
            let mut raw = Vec::new();
            encode_payload(&enc, &mut raw);
            let mut oracle_bytes = Vec::new();
            for w in &per_id {
                w.encode(&mut oracle_bytes);
            }
            prop_assert_eq!(&raw, &oracle_bytes);
            // Decoded into the arena, and per id by `Wah::decode`, it agrees.
            let SegmentEnc::Bitmap(arena) = decode_payload(slot.meta(), &raw).unwrap() else {
                panic!("a bitmap payload decodes to a bitmap segment");
            };
            let mut buf = raw.as_slice();
            for w in &per_id {
                prop_assert_eq!(&Wah::decode(&mut buf).unwrap(), w);
            }
            prop_assert!(buf.is_empty());
            for s in [&arena, mem] {
                let found = s.recount().unwrap();
                prop_assert_eq!(&found, slot.meta());
                let ones: Vec<u64> = per_id.iter().map(Wah::count_ones).collect();
                prop_assert_eq!(&*found.ones, &ones[..]);
                prop_assert_eq!(found.runs, per_id.iter().map(Wah::count_intervals).sum::<u64>());
                prop_assert_eq!(found.bytes, per_id.iter().map(Wah::size_bytes).sum::<usize>());
                prop_assert_eq!(s.iter().len(), per_id.len());
                for ((_, bm), w) in s.iter().zip(&per_id) {
                    prop_assert_eq!(bm.to_positions(), w.to_positions());
                    prop_assert_eq!(bm, w.view());
                }
            }
            prop_assert_eq!(&arena, mem);
        }
    }

    #[test]
    fn mixed_persist_round_trip(vals in values(), seg in seg_sizes(), pattern in any::<u64>()) {
        use cods_storage::persist::{decode_table, encode_table};
        use cods_storage::{Schema, Table};
        use std::sync::Arc;
        let schema = Schema::build(&[("c", ValueType::Int)], &[]).unwrap();
        let mixed = mix(&bitmap_col(&vals, seg), pattern);
        let t = Table::new("t", schema, vec![Arc::new(mixed.clone())]).unwrap();
        let now = decode_table(encode_table(&t)).unwrap();
        now.check_invariants().unwrap();
        prop_assert_eq!(now.to_rows(), t.to_rows());
        // Per-segment encodings and pins survive the round trip.
        let col = now.column(0);
        prop_assert_eq!(col.encoding_counts(), mixed.encoding_counts());
        for i in 0..col.segment_count() {
            prop_assert_eq!(col.segment_encoding(i), mixed.segment_encoding(i));
            prop_assert_eq!(col.segment_pinned(i), mixed.segment_pinned(i));
        }
    }

    // ---- The one segment writer ----

    // Random run streams sealed by `SegmentEnc::seal`: dictionaries
    // narrower and far wider than the segment, clustered runs or
    // near-unique single rows, a forced or a chosen encoding — and one
    // scratch reused by every seal, so a slot left dirty shows. Every
    // segment passes its invariants and its stats equal a recount from
    // the rows; a bitmap payload is byte for byte one
    // `Wah::from_sorted_positions(..).encode` per id, an RLE segment is
    // the one a push per row builds.
    #[test]
    fn sealed_segments_match_a_recount(
        width in prop_oneof![Just(3u32), Just(50u32), Just(1u32 << 20)],
        clustered in any::<bool>(),
        draws in prop::collection::vec((any::<u32>(), any::<u64>()), 1..200),
        forced in prop_oneof![
            Just(None),
            Just(Some(Encoding::Bitmap)),
            Just(Some(Encoding::Rle)),
        ],
    ) {
        use cods_bitmap::{RleSeq, Wah};
        use cods_storage::store::encode_payload;
        use cods_storage::{choose_encoding_from_stats, RleSegment, SealScratch, SegmentEnc};
        use std::collections::BTreeMap;
        let mut seq = RleSeq::new();
        let mut rows: Vec<u32> = Vec::new();
        for &(id, len) in &draws {
            let len = if clustered { 1 + len % 90 } else { 1 };
            seq.append_run(id % width, len);
            rows.extend(std::iter::repeat_n(id % width, len as usize));
        }
        let n = rows.len() as u64;
        let mut positions: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
        for (r, &id) in rows.iter().enumerate() {
            positions.entry(id).or_default().push(r as u64);
        }
        let per_id: Vec<(u32, Wah)> = positions
            .iter()
            .map(|(&id, at)| (id, Wah::from_sorted_positions(at.iter().copied(), n)))
            .collect();
        let ids: Vec<u32> = per_id.iter().map(|&(id, _)| id).collect();
        let ones: Vec<u64> = per_id.iter().map(|(_, w)| w.count_ones()).collect();
        let runs: u64 = per_id.iter().map(|(_, w)| w.count_intervals()).sum();

        let mut scratch = SealScratch::default();
        prop_assert_eq!(scratch.distinct(&seq), ids.len() as u64);
        let chosen = choose_encoding_from_stats(seq.num_runs() as u64, n, ids.len() as u64, 1);
        let encoding = forced.unwrap_or(chosen);
        for _ in 0..2 {
            let sealed = SegmentEnc::seal(seq.clone(), encoding, &mut scratch);
            sealed.check_invariants().unwrap();
            prop_assert_eq!(sealed.meta().encoding, encoding);
            prop_assert_eq!(sealed.meta().rows, n);
            prop_assert_eq!(&*sealed.meta().present_ids, &ids[..]);
            prop_assert_eq!(&*sealed.meta().ones, &ones[..]);
            prop_assert_eq!(sealed.meta().runs, runs);
            match &sealed.enc() {
                SegmentEnc::Bitmap(_) => {
                    let bytes: usize = per_id.iter().map(|(_, w)| w.size_bytes()).sum();
                    prop_assert_eq!(sealed.meta().bytes, bytes);
                    let mut raw = Vec::new();
                    encode_payload(&sealed.enc(), &mut raw);
                    let mut oracle = Vec::new();
                    for (_, w) in &per_id {
                        w.encode(&mut oracle);
                    }
                    prop_assert_eq!(raw, oracle);
                }
                SegmentEnc::Rle(s) => {
                    let pushed: RleSeq = rows.iter().copied().collect();
                    prop_assert_eq!(s.as_ref(), &RleSegment::new(pushed));
                }
            }
        }
    }
}
