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
        let filtered = col.filter_positions(&positions);
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
        let gathered = col.gather(&positions);
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
        let sliced = col.slice(lo, hi);
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
        let a = segmented.filter_positions(&positions);
        let b = mono.filter_positions(&positions);
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
        let ss = segmented.slice(lo, hi);
        let ms = mono.slice(lo, hi);
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
            segmented.gather(&positions).values(),
            mono.gather(&positions).values()
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
        let fm = mixed.filter_positions(&positions);
        fm.check_invariants().unwrap();
        prop_assert_eq!(fm.values(), bitmap.filter_positions(&positions).values());
        prop_assert_eq!(
            mixed.gather(&unsorted).values(),
            bitmap.gather(&unsorted).values()
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
        let sm = mixed.slice(lo, hi);
        sm.check_invariants().unwrap();
        prop_assert_eq!(sm.values(), bitmap.slice(lo, hi).values());
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
                let piece = base.slice(lo, hi);
                acc = Some(match acc {
                    None => piece,
                    Some(acc) => acc.concat(&piece).unwrap(),
                });
            }
            let acc = acc.unwrap();
            let compacted = acc.compacted();
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
}
