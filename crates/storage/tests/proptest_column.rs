//! Property tests of the column store against a plain `Vec<Value>` model,
//! of the segmented layout against a single-segment (monolithic) column,
//! and of the per-segment encodings against each other: every data-level
//! primitive must be bit-identical regardless of how the rows are chunked
//! or which physical encoding holds each segment — including **randomly
//! mixed** directories where bitmap, RLE and packed segments interleave
//! within one column.

use cods_storage::{
    Dictionary, EncodedColumn, Encoding, RecodeScope, RecodeTarget, Value, ValueType,
};
use proptest::prelude::*;
use std::borrow::Cow;
use std::collections::HashMap;

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

/// The bitmap payload of `bitmaps`, one per present id in id order: the
/// head table of each one's end in the words, then each one's words with
/// its active word last.
fn payload_of(bitmaps: &[cods_bitmap::Wah]) -> Vec<u8> {
    let mut head = Vec::new();
    let mut words = Vec::new();
    let mut end = 0u32;
    for w in bitmaps {
        for word in w.words().iter().chain([w.view().active()].iter()) {
            words.extend_from_slice(&word.to_le_bytes());
            end += 1;
        }
        head.extend_from_slice(&end.to_le_bytes());
    }
    head.extend_from_slice(&words);
    head
}

fn bitmap_col(vals: &[Value], seg: u64) -> EncodedColumn {
    EncodedColumn::from_values_with(ValueType::Int, vals, seg).unwrap()
}

/// Recodes segment `i` by the two bits of `pattern` at `2·(i mod 32)`:
/// left as ingested (bitmap, or packed where near-unique), RLE, packed or
/// bitmap — a random per-segment encoding assignment.
fn mix(col: &EncodedColumn, pattern: u64) -> EncodedColumn {
    let mut out = col.clone();
    for i in 0..col.segment_count() {
        let to = match (pattern >> (2 * (i % 32))) & 3 {
            0 => continue,
            1 => Encoding::Rle,
            2 => Encoding::Packed,
            _ => Encoding::Bitmap,
        };
        out = out
            .with_encoding(RecodeScope::Segments(i..i + 1), RecodeTarget::To(to))
            .unwrap();
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
        let bitmap = EncodedColumn::from_values(ValueType::Int, &vals)
            .unwrap()
            .with_encoding(RecodeScope::Column, RecodeTarget::To(Encoding::Bitmap))
            .unwrap();
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
            prop_assert_eq!(&*col.dict().value(*id), &vals[row]);
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
                prop_assert_eq!(auto.segment_encoding(i), auto.segments()[i].meta().choose_encoding());
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
            1 => glued
                .with_encoding(RecodeScope::Column, RecodeTarget::To(Encoding::Rle))
                .unwrap(),
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
        let got: Vec<Value> = ids.iter().map(|&id| col.dict().value(id).into_owned()).collect();
        let want: Vec<Value> =
            selected_rows(&sel).iter().map(|&r| vals[r as usize].clone()).collect();
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
        use cods_storage::store::{decode_payload, encode_payload, read_bitmaps};
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
                .present
                .ids()
                .map(|id| {
                    let at = (0..rows).filter(|&r| ids[r as usize] == id);
                    Wah::from_sorted_positions(at, rows)
                })
                .collect();
            // The payload is the head table and bodies of those bitmaps.
            let mut raw = Vec::new();
            encode_payload(&enc, &mut raw);
            prop_assert_eq!(&raw, &payload_of(&per_id));
            // Decoded into the arena, and per id by the selective read, it
            // agrees.
            let SegmentEnc::Bitmap(arena) = decode_payload(slot.meta(), &raw).unwrap() else {
                panic!("a bitmap payload decodes to a bitmap segment");
            };
            let every: Vec<usize> = (0..per_id.len()).collect();
            prop_assert_eq!(&read_bitmaps(slot.meta(), &raw, &every).unwrap(), &per_id);
            for s in [&arena, mem] {
                let found = s.recount().unwrap();
                prop_assert_eq!(&found, slot.meta());
                let ones: Vec<u64> = per_id.iter().map(Wah::count_ones).collect();
                prop_assert_eq!(found.present.iter().map(|(_, n)| n).collect::<Vec<_>>(), ones);
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

    // Random id streams sealed by `SegmentEnc::seal`: dictionaries
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
            Just(Some(Encoding::Packed)),
        ],
    ) {
        use cods_bitmap::{RleSeq, Wah};
        use cods_storage::packed::payload_len;
        use cods_storage::store::{decode_payload, encode_payload};
        use cods_storage::{choose_encoding_from_stats, RleSegment, SealScratch, SegmentEnc};
        use std::collections::BTreeMap;
        let mut rows: Vec<u32> = Vec::new();
        for &(id, len) in &draws {
            let len = if clustered { 1 + len % 90 } else { 1 };
            rows.extend(std::iter::repeat_n(id % width, len as usize));
        }
        let seq: RleSeq = rows.iter().copied().collect();
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
        let chosen = choose_encoding_from_stats(seq.num_runs() as u64, n, ids.len() as u64, 1);
        let encoding = forced.unwrap_or(chosen);
        for _ in 0..2 {
            let sealed = SegmentEnc::seal(&rows, encoding, &mut scratch);
            sealed.check_invariants().unwrap();
            prop_assert_eq!(sealed.meta().encoding, encoding);
            prop_assert_eq!(sealed.meta().rows, n);
            prop_assert_eq!(sealed.meta().present.ids().collect::<Vec<_>>(), ids.clone());
            prop_assert_eq!(sealed.meta().present.iter().map(|(_, n)| n).collect::<Vec<_>>(), ones.clone());
            prop_assert_eq!(sealed.meta().runs, runs);
            match &sealed.enc() {
                SegmentEnc::Bitmap(_) => {
                    let bytes: usize = per_id.iter().map(|(_, w)| w.size_bytes()).sum();
                    prop_assert_eq!(sealed.meta().bytes, bytes);
                    let mut raw = Vec::new();
                    encode_payload(&sealed.enc(), &mut raw);
                    let bitmaps: Vec<_> = per_id.iter().map(|(_, w)| w.clone()).collect();
                    prop_assert_eq!(raw, payload_of(&bitmaps));
                }
                SegmentEnc::Rle(s) => {
                    prop_assert_eq!(s.as_ref(), &RleSegment::new(seq.clone()));
                }
                SegmentEnc::Packed(s) => {
                    // Rows holding ids `first..first + n` in order are a
                    // range: no codes, no bytes.
                    let range = rows.iter().zip(rows[0]..).all(|(&id, want)| id == want);
                    prop_assert_eq!(sealed.meta().is_range(), range);
                    let len = if range { 0 } else { payload_len(n, ids.len()).unwrap() };
                    prop_assert_eq!(sealed.meta().bytes as u64, len);
                    let mut raw = Vec::new();
                    encode_payload(&sealed.enc(), &mut raw);
                    prop_assert_eq!(raw.len() as u64, len);
                    let back = decode_payload(sealed.meta(), &raw).unwrap();
                    prop_assert_eq!(&back, &sealed.enc());
                    prop_assert_eq!(&back.recount().unwrap(), sealed.meta());
                    let decoded: Vec<u32> = (0..n).map(|r| s.id_at(r)).collect();
                    prop_assert_eq!(&decoded, &rows);
                }
            }
        }
    }

    // ---- The packed encoding ----

    // A column recoded packed, then to RLE and bitmap in either order,
    // reads the same rows; every detour back to bitmap gives the bitmap
    // column's segments exactly.
    #[test]
    fn packed_recodes_round_trip_through_every_encoding(vals in values(), seg in seg_sizes()) {
        let bitmap = bitmap_col(&vals, seg).recode(Encoding::Bitmap).unwrap();
        let packed = bitmap.recode(Encoding::Packed).unwrap();
        packed.check_invariants().unwrap();
        prop_assert!(packed.is_uniform(Encoding::Packed));
        prop_assert_eq!(packed.values(), vals.clone());
        for path in [
            [Encoding::Rle, Encoding::Bitmap],
            [Encoding::Bitmap, Encoding::Rle],
        ] {
            let mut col = packed.clone();
            for e in path {
                col = col.recode(e).unwrap();
                col.check_invariants().unwrap();
                prop_assert_eq!(col.values(), vals.clone());
                let back = col.recode(Encoding::Packed).unwrap();
                prop_assert_eq!(&back, &packed);
            }
            prop_assert_eq!(&col.recode(Encoding::Bitmap).unwrap(), &bitmap);
        }
        let rle = bitmap.recode(Encoding::Rle).unwrap();
        prop_assert_eq!(&rle.recode(Encoding::Packed).unwrap(), &packed);
    }

    // Id translations of packed segments: a slice that drops values
    // compacts the dictionary (a monotone map, under which a wholly kept
    // packed segment keeps its codes), and a union whose right side
    // interned its values in another order merges dictionaries (a map that
    // permutes the codes). Both read back the model's rows and pass the
    // payload check, in memory and through a save.
    #[test]
    fn packed_segments_survive_id_maps(
        vals in values(),
        seg in seg_sizes(),
        a in any::<prop::sample::Index>(),
        b in any::<prop::sample::Index>(),
    ) {
        use cods_storage::persist::{decode_table, encode_table};
        use cods_storage::{Schema, Table};
        use std::sync::Arc;
        prop_assume!(!vals.is_empty());
        let packed = bitmap_col(&vals, seg).recode(Encoding::Packed).unwrap();
        let (mut lo, mut hi) = (a.index(vals.len() + 1) as u64, b.index(vals.len() + 1) as u64);
        if lo > hi {
            std::mem::swap(&mut lo, &mut hi);
        }
        let sliced = packed.slice(lo, hi).unwrap();
        sliced.check_invariants().unwrap();
        prop_assert_eq!(sliced.values(), vals[lo as usize..hi as usize].to_vec());

        let reversed: Vec<Value> = vals.iter().rev().cloned().collect();
        let right = bitmap_col(&reversed, seg).recode(Encoding::Packed).unwrap();
        let joined = sliced.concat(&right).unwrap();
        joined.check_invariants().unwrap();
        let mut want = vals[lo as usize..hi as usize].to_vec();
        want.extend(reversed);
        prop_assert_eq!(joined.values(), want.clone());

        let schema = Schema::build(&[("c", ValueType::Int)], &[]).unwrap();
        let t = Table::new("t", schema, vec![Arc::new(joined)]).unwrap();
        let back = decode_table(encode_table(&t)).unwrap();
        back.check_invariants().unwrap();
        prop_assert_eq!(back.column(0).values(), want);
    }

    // A unique key ingests as range segments — row `r` of a segment holds
    // id `first + r` — and every read of one matches the rows; each write
    // keeps the shape exactly where the ids it writes stay consecutive: a
    // filter that drops a row reseals the segment around the gap packed,
    // a dictionary merge that permutes ids reseals packed, and a UNION of
    // two abutting dense keys keeps both sides' ranges under one dense
    // dictionary. Every form survives a save.
    #[test]
    fn range_segments_match_the_rows_and_reseal_where_broken(
        n in 1usize..300,
        start in -5i64..5,
        seg in seg_sizes(),
        drop_at in any::<prop::sample::Index>(),
        sel in prop::collection::vec((any::<prop::sample::Index>(), 1u64..40), 0..6),
    ) {
        use cods_bitmap::Wah;
        use cods_storage::persist::{decode_table, encode_table};
        use cods_storage::{Schema, Table};
        use std::sync::Arc;
        let vals: Vec<Value> = (0..n as i64).map(|i| Value::int(start + i)).collect();
        let col = bitmap_col(&vals, seg);
        col.check_invariants().unwrap();
        prop_assert_eq!(col.dict().dense_first(), Some(start));
        prop_assert!(col.segments().iter().all(|s| s.meta().is_range()));
        prop_assert_eq!(col.payload_bytes(), 0);
        prop_assert_eq!(col.values(), vals.clone());
        for (i, z) in col.zones().iter().enumerate() {
            let r = col.segment_range(i);
            prop_assert_eq!((z.min_id as u64, z.max_id as u64), (r.start, r.end - 1));
        }
        // The walker: ids, runs and value bitmaps over any selection.
        let mut picks: Vec<(u64, u64)> = sel
            .iter()
            .map(|&(at, len)| {
                let a = at.index(n) as u64;
                (a, (a + len).min(n as u64))
            })
            .collect();
        picks.sort_unstable();
        let mut selection: Vec<(u64, u64)> = Vec::new();
        for (a, b) in picks {
            match selection.last_mut() {
                Some(last) if a <= last.1 => last.1 = last.1.max(b),
                _ => selection.push((a, b)),
            }
        }
        let want: Vec<u32> = selection.iter().flat_map(|&(a, b)| a as u32..b as u32).collect();
        prop_assert_eq!(col.try_ids_in(&selection).unwrap(), want.clone());
        let runs: Vec<u32> = col.try_runs_in(&selection).unwrap().into_iter().map(|(id, len)| {
            assert_eq!(len, 1);
            id
        }).collect();
        prop_assert_eq!(runs, want);
        let probe = drop_at.index(n) as u32;
        prop_assert_eq!(
            col.value_bitmap(probe),
            Wah::from_sorted_positions([u64::from(probe)], n as u64)
        );
        prop_assert_eq!(col.value_count(probe), 1);

        // A filter dropping one row: the output segment around the gap is
        // packed, every other one a range (it writes consecutive ids).
        let gone = probe as u64;
        let kept: Vec<u64> = (0..n as u64).filter(|&r| r != gone).collect();
        let filtered = col.filter_positions(&kept).unwrap();
        filtered.check_invariants().unwrap();
        let mut want_vals = vals.clone();
        want_vals.remove(gone as usize);
        prop_assert_eq!(filtered.values(), want_vals);
        for (i, rows) in kept.chunks(seg as usize).enumerate() {
            let consecutive = rows.windows(2).all(|w| w[1] == w[0] + 1);
            prop_assert_eq!(filtered.segments()[i].meta().is_range(), consecutive);
        }

        // A permuting remap: the same keys in reverse order, unioned after
        // the ascending ones, map by value to ids that descend — resealed
        // packed, the rows intact.
        let reversed: Vec<Value> = vals.iter().rev().cloned().collect();
        let back_col = bitmap_col(&reversed, seg);
        prop_assert!(back_col.segments().iter().all(|s| s.meta().is_range()));
        let permuted = col.concat(&back_col).unwrap();
        permuted.check_invariants().unwrap();
        let tail = &permuted.segments()[col.segment_count()..];
        // (A one-row segment's one id is any offset's.)
        for s in tail {
            prop_assert_eq!(s.meta().is_range(), s.meta().rows == 1);
        }
        prop_assert_eq!(permuted.values(), [vals.clone(), reversed].concat());

        // A UNION of two abutting dense keys: an offset, so both sides stay
        // ranges, under one dense dictionary.
        let next: Vec<Value> = (0..n as i64).map(|i| Value::int(start + n as i64 + i)).collect();
        let joined = col.concat(&bitmap_col(&next, seg)).unwrap();
        joined.check_invariants().unwrap();
        prop_assert!(joined.segments().iter().all(|s| s.meta().is_range()));
        prop_assert_eq!(joined.dict().dense_first(), Some(start));
        prop_assert_eq!(joined.values(), [vals.clone(), next].concat());

        let schema = Schema::build(&[("c", ValueType::Int)], &[]).unwrap();
        for c in [col, filtered, permuted, joined] {
            let t = Table::new("t", schema.clone(), vec![Arc::new(c.clone())]).unwrap();
            let back = decode_table(encode_table(&t)).unwrap();
            back.check_invariants().unwrap();
            let b = back.column(0);
            prop_assert_eq!(b.values(), c.values());
            for (x, y) in b.segments().iter().zip(c.segments()) {
                prop_assert_eq!(x.meta(), y.meta());
            }
        }
    }
}

// ---- `Dictionary` against a `HashMap` oracle ----

/// A splitmix64 stream: the dictionary shapes below are drawn from one
/// seed, so a failing case replays from it.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Distinct values in id order, one per shape: dense ascending ints (from
/// small, negative and `i64` edge starts), sparse ascending ints, shuffled
/// ints, strings, and floats with −0.0 and NaN bit patterns; each with and
/// without `Null` (first where the shape ascends, anywhere otherwise). The
/// int shapes overlap, so remaps between them find shared values.
fn dictionary_shapes(d: &mut Draw, n: usize) -> Vec<(&'static str, Vec<Value>)> {
    let n = n as i64;
    let start = [-3, 0, 5, -20, i64::MIN, i64::MAX - n.max(1) + 1][d.below(6) as usize];
    let dense: Vec<Value> = (0..n).map(|i| Value::int(start + i)).collect();
    let mut at = -25 + d.below(10) as i64;
    let sparse: Vec<Value> = (0..n)
        .map(|_| {
            at += 1 + d.below(3) as i64;
            Value::int(at)
        })
        .collect();
    let mut shuffled: Vec<Value> = (-30..30).map(Value::int).collect();
    d.shuffle(&mut shuffled);
    shuffled.truncate(n as usize);
    let mut strs: Vec<Value> = (0..2 * n).map(|i| Value::str(format!("s{i}"))).collect();
    d.shuffle(&mut strs);
    strs.truncate(n as usize);
    let specials = [
        0.0,
        -0.0,
        1.5,
        -1.5,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        f64::from_bits(0x7FF8_0000_0000_0001),
        f64::from_bits(0xFFF8_0000_0000_0000),
        f64::MIN_POSITIVE,
    ];
    let mut floats: Vec<Value> = specials
        .iter()
        .copied()
        .chain((0..n).map(|i| i as f64 * 0.25))
        .map(Value::float)
        .collect();
    floats.sort();
    floats.dedup();
    if d.below(2) == 0 {
        d.shuffle(&mut floats);
    }
    floats.truncate(n as usize);
    let mut out = Vec::new();
    for (name, values, ascends) in [
        ("dense", dense, true),
        ("sparse", sparse, true),
        ("shuffled", shuffled, false),
        ("strings", strs, false),
        ("floats", floats, false),
    ] {
        let mut with_null = values.clone();
        let at = if ascends {
            0
        } else {
            d.below(values.len() as u64 + 1) as usize
        };
        with_null.insert(at, Value::Null);
        out.push((name, values));
        out.push((name, with_null));
    }
    out
}

/// The oracle: each value's id.
fn oracle(values: &[Value]) -> HashMap<Value, u32> {
    values.iter().cloned().zip(0..).collect()
}

/// Holds `d` to `values` (its ids in order): every lookup, and its value
/// order against a sort of the ids by value.
fn holds_to_oracle(what: &str, d: &Dictionary, values: &[Value], probes: &[Value]) {
    let ids = oracle(values);
    assert_eq!(
        d.iter().map(Cow::into_owned).collect::<Vec<_>>(),
        values,
        "{what}"
    );
    for v in values.iter().chain(probes) {
        assert_eq!(d.id_of(v), ids.get(v).copied(), "{what}: id_of({v})");
    }
    let mut ordered: Vec<u32> = (0..values.len() as u32).collect();
    ordered.sort_by(|&a, &b| values[a as usize].cmp(&values[b as usize]));
    let order = d.value_order();
    let ascends = values.windows(2).all(|w| w[0] < w[1]);
    assert_eq!(order.is_identity(), ascends, "{what}: {values:?}");
    assert_eq!(order.rank_table().is_none(), ascends, "{what}");
    let identity = || (0..values.len() as u32).collect::<Vec<_>>();
    let by_rank = order.id_table().map_or_else(identity, <[u32]>::to_vec);
    assert_eq!(by_rank, ordered, "{what}");
    for (rank, &id) in ordered.iter().enumerate() {
        let rank_of = order.rank_table().map_or(id, |ranks| ranks[id as usize]);
        assert_eq!(rank_of, rank as u32, "{what}");
        assert_eq!(order.id_at(rank as u32), id, "{what}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn dictionaries_match_a_hash_map_oracle(seed in any::<u64>(), n in any::<u8>()) {
        let mut draw = Draw(seed);
        let shapes = dictionary_shapes(&mut draw, n as usize % 24);
        let probes: Vec<Value> = (-40..40)
            .map(Value::int)
            .chain([i64::MIN, i64::MIN + 1, i64::MAX - 1, i64::MAX].map(Value::int))
            .chain([Value::Null, Value::str("s1"), Value::str("zz"), Value::float(-0.0)])
            .chain([Value::float(f64::NAN), Value::float(2.0), Value::Bool(true)])
            .collect();
        let mut dicts = Vec::new();
        for (name, values) in &shapes {
            // The open's path, and interning one value at a time.
            let opened = Dictionary::from_values(values.clone()).unwrap();
            holds_to_oracle(&format!("{name} opened"), &opened, values, &probes);
            let mut built = Dictionary::new();
            for v in values {
                built.intern(v.clone());
                built.intern(v.clone());
            }
            holds_to_oracle(&format!("{name} interned"), &built, values, &probes);

            // Interning into a shared handle copies it; the original keeps
            // its values and answers.
            let mut grown = opened.clone();
            let fresh = probes
                .iter()
                .find(|p| opened.id_of(p).is_none())
                .cloned()
                .unwrap();
            prop_assert_eq!(grown.intern(fresh.clone()), values.len() as u32);
            if let Some(v) = values.first() {
                prop_assert_eq!(grown.intern(v.clone()), 0);
            }
            prop_assert!(!grown.same_as(&opened));
            holds_to_oracle(&format!("{name} original"), &opened, values, &probes);
            let mut more = values.clone();
            more.push(fresh);
            holds_to_oracle(&format!("{name} grown"), &grown, &more, &probes);

            // Compaction keeps the chosen ids in order.
            let keep: Vec<bool> = values.iter().map(|_| draw.below(3) != 0).collect();
            let (compact, mapping) = opened.compact(|id| keep[id as usize]);
            let kept: Vec<Value> = values
                .iter()
                .zip(&keep)
                .filter(|(_, k)| **k)
                .map(|(v, _)| v.clone())
                .collect();
            let ids = oracle(&kept);
            for (v, m) in values.iter().zip(&mapping) {
                prop_assert_eq!(*m, ids.get(v).copied());
            }
            holds_to_oracle(&format!("{name} compacted"), &compact, &kept, &probes);
            dicts.push((format!("{name} opened"), opened, values.clone()));
            dicts.push((format!("{name} grown"), grown, more));
        }

        // Every pair of shapes, both ways: merge and remap.
        for (a_name, a, a_values) in &dicts {
            prop_assert_eq!(a.remap_to(&a.clone()), (0..a.len() as u32).map(Some).collect::<Vec<_>>());
            for (b_name, b, b_values) in &dicts {
                let b_ids = oracle(b_values);
                let want: Vec<Option<u32>> = a_values.iter().map(|v| b_ids.get(v).copied()).collect();
                prop_assert_eq!(a.remap_to(b), want, "{} → {}", a_name, b_name);

                let (merged, mapping) = a.merge(b);
                let mut all = a_values.clone();
                let mut ids = oracle(a_values);
                let want: Vec<u32> = b_values
                    .iter()
                    .map(|v| {
                        *ids.entry(v.clone()).or_insert_with(|| {
                            all.push(v.clone());
                            all.len() as u32 - 1
                        })
                    })
                    .collect();
                prop_assert_eq!(mapping, want, "{} ∪ {}", a_name, b_name);
                holds_to_oracle(&format!("{a_name} ∪ {b_name}"), &merged, &all, &probes);
            }
        }
    }
}
