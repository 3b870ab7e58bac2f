//! Differential property tests of zone-map scan pruning: over random
//! tables — per-column *and* per-segment mixed encodings (randomly mixed
//! directories), post-SMO, post-compaction — and random predicates, the
//! pruned scan ([`predicate_mask`]) must be bit-identical to the
//! exhaustive scan ([`predicate_mask_unpruned`]) and to a row-level
//! evaluation oracle. Runs in CI's differential proptest job at
//! `PROPTEST_CASES=512`.

use cods::simple_ops::{partition_table, union_tables};
use cods_query::bitmap_scan::{predicate_mask, predicate_mask_unpruned};
use cods_query::{CmpOp, Predicate};
use cods_storage::{EncodedColumn, Encoding, Schema, Table, Value, ValueType};
use proptest::prelude::*;
use std::sync::Arc;

fn schema() -> Schema {
    Schema::build(&[("k", ValueType::Int), ("v", ValueType::Int)], &[]).unwrap()
}

/// Random rows of R(k, v): clustered-ish k (sorted with noise) so zones
/// have something to prune, scattered v with NULLs.
fn sorted_rows() -> impl Strategy<Value = Vec<Vec<Value>>> {
    prop::collection::vec((0i64..40, 0i64..12, 0u8..16), 1usize..300).prop_map(|trips| {
        let mut rows: Vec<Vec<Value>> = trips
            .into_iter()
            .map(|(k, v, null)| {
                vec![
                    Value::int(k),
                    if null == 0 {
                        Value::Null
                    } else {
                        Value::int(v)
                    },
                ]
            })
            .collect();
        // Sort by k so segments get distinct value ranges (what zone
        // pruning exploits); v stays scattered.
        rows.sort_by(|a, b| a[0].cmp(&b[0]));
        rows
    })
}

/// [`sorted_rows`] as a table with a random segment size shared by both
/// columns (the directories agree, as for any loaded or saved table).
fn base_table() -> impl Strategy<Value = Table> {
    (sorted_rows(), 4u64..64).prop_map(|(rows, seg_rows)| {
        Table::from_rows_with_segment_rows("R", schema(), &rows, seg_rows).unwrap()
    })
}

/// A random predicate tree of depth ≤ 4 over k and v: `AND`/`OR`/`NOT`
/// mixes that repeat columns, all six operators (so `Ne`'s boolean-table
/// path too), literals outside every value range, NULL literals, and
/// fusable BETWEEN pairs on k.
fn pred() -> impl Strategy<Value = Predicate> {
    let leaf = (
        (0usize..6, 0usize..2, -5i64..50, 0u8..12),
        (0i64..20, 0u8..4),
    )
        .prop_map(|((op, col, lit, null), (width, between))| {
            if between == 0 {
                return Predicate::ge("k", lit).and(Predicate::lt("k", lit + width));
            }
            let op = [
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
            ][op];
            Predicate::Compare {
                column: if col == 0 { "k" } else { "v" }.into(),
                op,
                literal: if null == 0 {
                    Value::Null
                } else {
                    Value::int(lit)
                },
            }
        });
    (
        prop::collection::vec(leaf, 16usize),
        prop::collection::vec(0u8..8, 15usize),
    )
        .prop_map(|(leaves, shapes)| {
            fn build(
                depth: u32,
                leaves: &mut std::vec::IntoIter<Predicate>,
                shapes: &mut std::vec::IntoIter<u8>,
            ) -> Predicate {
                let shape = if depth == 4 {
                    0
                } else {
                    shapes.next().unwrap()
                };
                let mut sub = || build(depth + 1, leaves, shapes);
                match shape {
                    0 | 1 => leaves.next().unwrap(),
                    2..=4 => {
                        let a = sub();
                        a.and(sub())
                    }
                    5 | 6 => {
                        let a = sub();
                        a.or(sub())
                    }
                    _ => sub().not(),
                }
            }
            build(0, &mut leaves.into_iter(), &mut shapes.into_iter())
        })
}

/// Recodes segments of the named column to RLE wherever `pattern` has a
/// set bit — a random per-segment encoding assignment producing a
/// genuinely mixed directory.
fn mix_column(t: &Table, name: &str, pattern: u64) -> Table {
    let mut out = t.clone();
    let segs = out.column_by_name(name).unwrap().segment_count();
    for i in 0..segs {
        if pattern & (1 << (i % 64)) != 0 {
            out = out
                .with_column_segment_range_encoding(name, Encoding::Rle, i..i + 1)
                .unwrap();
        }
    }
    out
}

fn assert_masks_agree(t: &Table, p: &Predicate) {
    let pruned = predicate_mask(t, p).unwrap();
    let unpruned = predicate_mask_unpruned(t, p).unwrap();
    assert_eq!(pruned, unpruned, "pruned != exhaustive for {p:?}");
    let compiled = p.compile(t.schema()).unwrap();
    for (row, tuple) in t.to_rows().iter().enumerate() {
        assert_eq!(
            pruned.get(row as u64),
            compiled.eval(tuple),
            "row {row} for {p:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pruned_scan_matches_exhaustive_on_mixed_encodings(
        table in base_table(),
        p in pred(),
        enc in 0usize..6,
        pattern in proptest::prelude::any::<u64>(),
    ) {
        // The four per-column encoding combinations, plus randomly mixed
        // per-segment directories (one column, then both).
        let table = match enc {
            0 => table,
            1 => table.recoded(Encoding::Rle).unwrap(),
            2 => table.with_column_encoding("k", Encoding::Rle).unwrap(),
            3 => table.with_column_encoding("v", Encoding::Rle).unwrap(),
            4 => mix_column(&table, "k", pattern),
            _ => mix_column(&mix_column(&table, "k", pattern), "v", pattern.rotate_left(23)),
        };
        table.check_invariants().unwrap();
        assert_masks_agree(&table, &p);
    }

    #[test]
    fn pruned_scan_matches_exhaustive_after_smo_and_compaction(
        table in base_table(),
        p in pred(),
        threshold in 0i64..40,
        rle in 0usize..3,
        pattern in proptest::prelude::any::<u64>(),
    ) {
        let table = match rle {
            1 => table.recoded(Encoding::Rle).unwrap(),
            // Randomly mixed directories go through the same SMO and
            // compaction machinery as the uniform ones.
            2 => mix_column(&table, "k", pattern),
            _ => table,
        };
        // Post-SMO: partition + union rebuilds every column through the
        // segment-parallel executors (zones re-derived from stats).
        let (sat, rest, _) =
            partition_table(&table, &Predicate::lt("k", threshold), "lo", "hi").unwrap();
        let (back, _) = union_tables(&sat, &rest, "back").unwrap();
        back.check_invariants().unwrap();
        assert_masks_agree(&back, &p);

        // Post-compaction: fragment the directory through a slice/concat
        // chain, then compact — zones spliced from source segments.
        let rows = table.rows();
        if rows >= 8 {
            let quarter = rows / 4;
            let cols: Vec<_> = table
                .columns()
                .iter()
                .map(|c| {
                    let mut acc = c.slice(0, quarter);
                    for piece in 1..4 {
                        let lo = piece * quarter;
                        let hi = if piece == 3 { rows } else { lo + quarter };
                        acc = acc.concat(&c.slice(lo, hi)).unwrap();
                    }
                    Arc::new(acc.compacted())
                })
                .collect();
            let rebuilt = Table::new("C", table.schema().clone(), cols).unwrap();
            rebuilt.check_invariants().unwrap();
            assert_eq!(rebuilt.to_rows(), table.to_rows());
            assert_masks_agree(&rebuilt, &p);
        }
    }

    #[test]
    fn range_major_scan_matches_oracles_on_disagreeing_directories(
        rows in sorted_rows(),
        p in pred(),
        k_seg in 3u64..64,
        v_seg in 3u64..64,
        cut in 0u64..300,
        pattern in proptest::prelude::any::<u64>(),
    ) {
        // Per-column segment sizes, and one extra boundary in v from a
        // slice/concat pair: the columns' directories share few boundaries
        // (the last row at the least), so a range spans several segments
        // of each column — the common-boundary fallback.
        let column = |i: usize, seg_rows: u64| {
            let values: Vec<Value> = rows.iter().map(|r| r[i].clone()).collect();
            EncodedColumn::from_values_with(ValueType::Int, &values, seg_rows).unwrap()
        };
        let (k, v) = (column(0, k_seg), column(1, v_seg));
        let cut = cut % (v.rows() + 1);
        let v = v.slice(0, cut).concat(&v.slice(cut, v.rows())).unwrap();
        let table = Table::new("D", schema(), vec![Arc::new(k), Arc::new(v)]).unwrap();
        let table = mix_column(&mix_column(&table, "k", pattern), "v", pattern.rotate_left(23));
        table.check_invariants().unwrap();
        assert_eq!(table.to_rows(), rows);
        assert_masks_agree(&table, &p);
    }
}
